// spiderbench: one workload per process.
//
//   spiderbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Prints the run's accounting (seed, hardware context, ops attempted and
// failed) and, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exits non-zero without
// a result line if any property check fails.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

using namespace spiderbench;

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py compares the two).
constexpr Declared kPerLayer[] = {
    {"model.optimize_two_channels_s", "s"},
    {"model.dividing_speed_s", "s"},
    {"model.optimize_channels_s", "s"},
    {"model.expected_join_time_us", "us"},
    {"model.join_probability_us", "us"},
    {"mobility.deployment_build_s", "s"},
    {"core.world_build_s", "s"},
    {"core.run_s", "s"},
    {"core.driver.joins_per_attempt", "ratio"},
    {"core.driver.schedule_switches", "count"},
    {"sim.events_fired", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.cancel_ratio", "ratio"},
    {"phy.frames_sent", "count"},
    {"phy.frames_delivered", "count"},
    {"phy.frames_lost", "count"},
    {"phy.deliveries_per_frame", "ratio"},
    {"phy.host_ns_per_frame", "ns"},
    {"phy.shard.windows", "count"},
    {"phy.shard.halo_messages", "count"},
    {"phy.shard.migrations", "count"},
    {"phy.shard.mailbox_high_water", "count"},
    {"phy.shard.world_build_s", "s"},
    {"phy.shard.pooled_run_s_w2", "s"},
    {"phy.shard.pooled_run_s_w4", "s"},
    {"mac.associations", "count"},
    {"mac.failures", "count"},
    {"mac.retries", "count"},
    {"dhcpd.bound", "count"},
    {"dhcpd.message_timeouts", "count"},
    {"dhcpd.bound_per_discover", "ratio"},
    {"tcp.bytes_delivered", "bytes"},
    {"tcp.flows_opened", "count"},
    {"telemetry.stream_lines_per_op", "count"},
    {"telemetry.stream_bytes_per_op", "bytes"},
    {"server.start_s", "s"},
    {"server.submit_ack_s", "s"},
    {"server.ping_rtt_s", "s"},
    {"server.runs_failed", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spiderbench: %s\nusage: spiderbench --workload "
               "model_solve|table2_drive|fleet_hosted|city_shard --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // One malloc arena for every thread: with glibc's per-thread arenas the
  // run server's peak RSS varies by a quarter from run to run with thread
  // timing alone; with one arena it repeats (and op times do not move).
  mallopt(M_ARENA_MAX, 1);
  if (args.trace) Tracer::instance().enable();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("hardware: %s\n", hardware_context().c_str());
  std::fflush(stdout);

  Outcome out;
  if (args.workload == "model_solve") {
    out = run_model_solve(args);
  } else if (args.workload == "table2_drive") {
    out = run_table2_drive(args);
  } else if (args.workload == "fleet_hosted") {
    out = run_fleet_hosted(args);
  } else if (args.workload == "city_shard") {
    out = run_city_shard(args);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  const Checks& checks = Checks::instance();
  std::printf("checks: %zu passed, %zu failed\n", checks.passed(),
              checks.failures());
  std::printf("ops: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (checks.failures() > 0 || out.attempted == 0 || out.op_s.empty()) {
    std::fprintf(stderr, "spiderbench: %s failed its checks; no result\n",
                 args.workload.c_str());
    return 1;
  }

  const auto [tail_pct, tail_s] = tail(out.op_s);
  std::vector<Metric> e2e = {
      {"setup_s", median(out.setup_s), "s"},
      {"ops_per_s", static_cast<double>(out.op_s.size()) / out.timed_wall_s,
       "1/s"},
      {"op_p50_s", median(out.op_s), "s"},
      {"op_tail_s", tail_s, "s"},
      {"sim_events_per_s",
       out.sim_host_s > 0.0 ? out.sim_events / out.sim_host_s : 0.0, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("timed: %zu ops in %.3f s; tail is p%g; setup samples:",
              out.op_s.size(), out.timed_wall_s, tail_pct);
  for (double s : out.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> result;
  if (!args.trace) {
    result = e2e;
  } else {
    // End-to-end figures of the traced run, for the tracing overhead only.
    std::printf("traced end-to-end (not gated): %s\n",
                metrics_json(e2e).c_str());
    Tracer& tracer = Tracer::instance();
    std::printf("self time by layer (s):");
    for (const auto& [layer, s] : tracer.self_seconds_by_layer()) {
      std::printf(" %s=%.4f", layer.c_str(), s);
    }
    std::printf("\nspans:");
    for (const auto& [name, total] : tracer.totals_by_name()) {
      std::printf(" %s=%.4fs/%llu", name.c_str(), total.first,
                  static_cast<unsigned long long>(total.second));
    }
    std::printf("\n");
    const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".json";
    if (tracer.write_chrome(path)) {
      std::printf("chrome trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "spiderbench: could not write %s\n", path.c_str());
      return 1;
    }
    for (const Declared& d : kPerLayer) {
      const auto it = out.layer.find(d.name);
      // A layer this workload does not exercise reads 0.
      result.push_back({d.name, it == out.layer.end() ? 0.0 : it->second,
                        d.unit});
    }
  }
  for (const Metric& m : result) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "spiderbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(result).c_str());
  return 0;
}
