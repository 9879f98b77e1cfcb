// table2_drive: Table 2's six rows as 600-s single-client drives.
//
// One op is one core::Experiment drive (constructor plus run()). A round is
// the six rows on one seed: the four Spider configurations on the
// Amherst-style drive, then Spider channel 6 single-AP and the stock driver
// on the Boston-style drive. Round r's seed is derived from --seed and r.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/configs.h"
#include "core/experiment.h"
#include "workloads.h"

namespace spiderbench {
namespace {

using spider::core::Experiment;
using spider::core::ExperimentConfig;

constexpr int kRows = 6;
const char* const kRowNames[kRows] = {
    "ch1_multi_ap",        "ch1_single_ap",       "3ch_multi_ap",
    "3ch_single_ap",       "boston_ch6_single_ap", "boston_stock"};

struct Inputs {
  std::vector<ExperimentConfig> rows;
  double deployment_s = 0.0;  // host time of the two drive-scenario builds
};

// Table 2's rows on the repository's own drive scenarios (bench/common.h),
// configured as bench/table2_configs.cc configures them.
Inputs build_round(std::uint64_t seed) {
  Inputs in;
  ExperimentConfig amherst, boston;
  {
    Span span("mobility.deployment_build");
    const double t0 = now_s();
    amherst = spider::bench::amherst_drive(seed);
    boston = spider::bench::boston_drive(seed);
    in.deployment_s = now_s() - t0;
  }
  for (int row = 0; row < kRows; ++row) {
    ExperimentConfig cfg = row < 4 ? amherst : boston;
    switch (row) {
      case 0: cfg.spider = spider::core::single_channel_multi_ap(1); break;
      case 1: cfg.spider = spider::core::single_channel_single_ap(1); break;
      case 2: cfg.spider = spider::core::multi_channel_multi_ap(); break;
      case 3: cfg.spider = spider::core::multi_channel_single_ap(); break;
      case 4:
        cfg.spider = spider::core::single_channel_multi_ap(6);
        cfg.spider.multi_ap = false;
        cfg.spider.max_interfaces = 1;
        break;
      default: cfg.driver = spider::core::DriverKind::kStock; break;
    }
    in.rows.push_back(std::move(cfg));
  }
  return in;
}

struct Drive {
  int row = 0;
  std::uint64_t seed = 0;
  double build_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  double throughput_kBps = 0.0;
  double connectivity = 0.0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
  std::int64_t bytes = 0;
  std::uint64_t flows = 0;
};

Drive drive(const ExperimentConfig& config, int row, bool collect,
            LayerCounters* counters) {
  Drive d;
  d.row = row;
  d.seed = config.seed;
  ExperimentConfig cfg = config;
  const double t0 = now_s();
  Span op_span("core.drive");
  std::unique_ptr<Experiment> experiment;
  {
    Span span("core.world_build");
    experiment = std::make_unique<Experiment>(std::move(cfg));
  }
  const double t1 = now_s();
  spider::core::ExperimentResults results;
  {
    Span span("core.run");
    results = experiment->run();
  }
  const double t2 = now_s();
  d.build_s = t1 - t0;
  d.run_s = t2 - t1;
  d.events = experiment->simulator().events_executed();
  d.digest = experiment->simulator().digest();
  d.throughput_kBps = results.avg_throughput_kBps();
  d.connectivity = results.traffic.connectivity_fraction;
  d.frames_sent = results.frames_sent;
  d.frames_lost = results.frames_lost;
  d.bytes = results.traffic.total_bytes;
  d.flows = results.flows_opened;
  if (collect && counters != nullptr) {
    counters->add(experiment->simulator().telemetry().collect());
  }
  return d;
}

}  // namespace

Outcome run_table2_drive(const Args& args) {
  Outcome out;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double t0 = now_s();
    const Inputs first = build_round(derive_seed(args.seed, 0));
    const Inputs warm = build_round(kWarmUpSeed);
    drive(warm.rows[0], 0, false, nullptr);
    expect(first.rows.size() == kRows, "a round holds Table 2's six rows");
    out.setup_s.push_back(now_s() - t0);
  }

  LayerCounters counters;
  std::vector<Drive> drives;
  std::vector<Inputs> rounds;
  double deployment_s = 0.0;
  const double start = now_s();
  do {
    rounds.push_back(build_round(derive_seed(args.seed, rounds.size())));
    deployment_s += rounds.back().deployment_s;
    for (int row = 0; row < kRows; ++row) {
      const double t0 = now_s();
      drives.push_back(
          drive(rounds.back().rows[row], row, args.trace, &counters));
      out.op_s.push_back(now_s() - t0);
    }
  } while (now_s() - start < args.seconds || drives.size() < kMinOps);
  out.timed_wall_s = now_s() - start;
  out.attempted = drives.size();

  // ---- checks ----
  std::vector<double> mean_kBps(kRows, 0.0);
  for (const Drive& d : drives) {
    const std::string where = std::string(kRowNames[d.row]) + " seed " +
                              std::to_string(d.seed);
    expect(d.frames_lost <= d.frames_sent, where + ": frames lost <= sent");
    expect(d.connectivity >= 0.0 && d.connectivity <= 1.0,
           where + ": connectivity in [0, 1]");
    expect(d.events > 0, where + ": the drive executed events");
    mean_kBps[static_cast<std::size_t>(d.row)] +=
        d.throughput_kBps / static_cast<double>(rounds.size());
    out.sim_events += static_cast<double>(d.events);
    out.sim_host_s += d.build_s + d.run_s;
  }
  // Determinism: re-running an op reproduces its digest exactly.
  for (const std::size_t i : {std::size_t{0}, drives.size() - 1}) {
    const Drive again = drive(rounds[i / kRows].rows[drives[i].row],
                              drives[i].row, false, nullptr);
    expect(again.digest == drives[i].digest && again.events == drives[i].events,
           std::string("re-run of ") + kRowNames[drives[i].row] +
               " reproduces Simulator::digest()");
  }
  // Table 2's orderings over the run's seeds.
  std::printf("table2_drive: %zu drives over %zu seeds; mean KB/s:",
              drives.size(), rounds.size());
  for (int row = 0; row < kRows; ++row) {
    std::printf(" %s=%.1f", kRowNames[row], mean_kBps[row]);
  }
  std::printf("\n");
  expect(mean_kBps[0] > mean_kBps[1],
         "Table 2: channel 1 multi-AP beats channel 1 single-AP");
  expect(mean_kBps[4] > mean_kBps[5],
         "Table 2: Spider beats the stock driver on the Boston drive");

  // ---- per-layer ----
  double build_s = 0.0, run_s = 0.0, events = 0.0, bytes = 0.0, flows = 0.0;
  for (const Drive& d : drives) {
    build_s += d.build_s;
    run_s += d.run_s;
    events += static_cast<double>(d.events);
    bytes += static_cast<double>(d.bytes);
    flows += static_cast<double>(d.flows);
  }
  const double n = static_cast<double>(drives.size());
  out.layer["mobility.deployment_build_s"] =
      deployment_s / static_cast<double>(2 * rounds.size());
  out.layer["core.world_build_s"] = build_s / n;
  out.layer["core.run_s"] = run_s / n;
  out.layer["sim.events_fired"] = static_cast<double>(drives.front().events);
  out.layer["sim.host_ns_per_event"] = run_s / events * 1e9;
  out.layer["tcp.bytes_delivered"] = bytes / n;
  out.layer["tcp.flows_opened"] = flows / n;
  counters.report(out.layer);
  return out;
}

}  // namespace spiderbench
