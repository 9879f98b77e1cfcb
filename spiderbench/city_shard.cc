// city_shard: a city-scale radio field cut into strips.
//
// One op builds core::make_scale_shard_scenario (kRadios radios at the scale
// bench's density, kWorldMs of simulated time) and runs it as a
// phy::ShardedWorld of 4 strips with a null pool, so every strip advances
// inline on this thread. Op i's scenario seed is derived from --seed and i.
// Pooled runs (2 and 4 workers) are measured in the traced run only, as a
// reference: pool fan-out carries the host scheduler's noise.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/shard_scenarios.h"
#include "phy/shard_world.h"
#include "sim/thread_pool.h"
#include "workloads.h"

namespace spiderbench {
namespace {

namespace phy = spider::phy;

constexpr int kRadios = 20000;
constexpr int kWorldMs = 40;
constexpr unsigned kStrips = 4;

struct ShardOp {
  std::uint64_t seed = 0;
  double build_s = 0.0;
  double run_s = 0.0;
  phy::ShardWorldStats stats;
  std::uint64_t digest = 0;
  std::uint64_t send_opportunities = 0;
};

phy::ShardScenario scenario_for(std::uint64_t seed) {
  return spider::core::make_scale_shard_scenario(
      kRadios, seed, spider::sim::Time::millis(kWorldMs));
}

// Upper bound on frames sent, counted from the node specs: one frame per
// node per traffic tick on which its uid-phased period comes due.
std::uint64_t send_opportunities(const phy::ShardScenario& scenario,
                                 std::uint64_t windows) {
  const std::uint64_t ticks =
      (windows + scenario.windows_per_tick - 1) / scenario.windows_per_tick;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < scenario.nodes.size(); ++i) {
    const std::uint64_t period = scenario.nodes[i].tx_period_ticks;
    if (period == 0) continue;
    const std::uint64_t uid = i + 1;
    for (std::uint64_t tick = 0; tick < ticks; ++tick) {
      if ((tick + uid) % period == 0) ++total;
    }
  }
  return total;
}

ShardOp run_once(std::uint64_t seed, unsigned strips,
                 spider::sim::ThreadPool* pool,
                 std::unique_ptr<phy::ShardedWorld>* keep = nullptr) {
  ShardOp op;
  op.seed = seed;
  Span op_span("phy.shard.op");
  const double t0 = now_s();
  std::unique_ptr<phy::ShardedWorld> world;
  {
    Span span("phy.shard.world_build");
    world = std::make_unique<phy::ShardedWorld>(scenario_for(seed), strips,
                                                pool);
  }
  const double t1 = now_s();
  {
    Span span("phy.shard.run");
    world->run();
  }
  op.run_s = now_s() - t1;
  op.build_s = t1 - t0;
  op.stats = world->stats();
  op.digest = world->digest();
  if (keep != nullptr) *keep = std::move(world);
  return op;
}

}  // namespace

Outcome run_city_shard(const Args& args) {
  Outcome out;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double t0 = now_s();
    const phy::ShardScenario first = scenario_for(derive_seed(args.seed, 0));
    run_once(kWarmUpSeed, kStrips, nullptr);
    expect(first.nodes.size() == kRadios, "the first field holds every radio");
    out.setup_s.push_back(now_s() - t0);
  }

  std::vector<ShardOp> ops;
  const double start = now_s();
  do {
    const double t0 = now_s();
    ops.push_back(run_once(derive_seed(args.seed, ops.size()), kStrips, nullptr));
    out.op_s.push_back(now_s() - t0);
  } while (now_s() - start < args.seconds || ops.size() < kMinOps);
  out.timed_wall_s = now_s() - start;
  out.attempted = ops.size();

  // ---- checks ----
  for (ShardOp& op : ops) {
    const std::string where = "field seed " + std::to_string(op.seed);
    expect(op.stats.message_drops == 0, where + ": no mailbox message drops");
    op.send_opportunities =
        send_opportunities(scenario_for(op.seed), op.stats.windows);
    expect(op.stats.frames_sent <= op.send_opportunities,
           where + ": frames sent (" + std::to_string(op.stats.frames_sent) +
               ") within the send opportunities of the node specs (" +
               std::to_string(op.send_opportunities) + ")");
    expect(op.stats.frames_sent > 0, where + ": the field transmitted");
    out.sim_events += static_cast<double>(op.stats.events_executed);
    out.sim_host_s += op.build_s + op.run_s;
  }
  // Strip invariance against the 1-strip reference engine, on the first and
  // the last field of the run.
  for (const std::size_t i : {std::size_t{0}, ops.size() - 1}) {
    std::unique_ptr<phy::ShardedWorld> striped, whole;
    run_once(ops[i].seed, kStrips, nullptr, &striped);
    run_once(ops[i].seed, 1, nullptr, &whole);
    const std::string where = "field seed " + std::to_string(ops[i].seed);
    expect(striped->digest() == whole->digest() &&
               striped->digest() == ops[i].digest,
           where + ": 4-strip digest equals the 1-strip digest");
    bool same_nodes = true;
    for (std::uint32_t uid = 1; uid <= static_cast<std::uint32_t>(kRadios);
         ++uid) {
      same_nodes = same_nodes &&
                   striped->node_rx_frames(uid) == whole->node_rx_frames(uid) &&
                   striped->node_tx_frames(uid) == whole->node_tx_frames(uid);
    }
    expect(same_nodes, where + ": per-node rx/tx counters equal the 1-strip run's");
  }
  std::printf("city_shard: %zu fields of %d radios, %u strips, %d ms each\n",
              ops.size(), kRadios, kStrips, kWorldMs);

  // ---- per-layer ----
  const double n = static_cast<double>(ops.size());
  double build_s = 0.0, run_s = 0.0, sent = 0.0, delivered = 0.0, lost = 0.0,
         windows = 0.0, halo = 0.0, migrations = 0.0, events = 0.0;
  std::size_t high_water = 0;
  for (const ShardOp& op : ops) {
    build_s += op.build_s;
    run_s += op.run_s;
    sent += static_cast<double>(op.stats.frames_sent);
    delivered += static_cast<double>(op.stats.frames_delivered);
    lost += static_cast<double>(op.stats.frames_lost);
    windows += static_cast<double>(op.stats.windows);
    halo += static_cast<double>(op.stats.halo_messages);
    migrations += static_cast<double>(op.stats.migrations);
    events += static_cast<double>(op.stats.events_executed);
    high_water = std::max(high_water, op.stats.mailbox_high_water);
  }
  out.layer["sim.events_fired"] =
      static_cast<double>(ops.front().stats.events_executed);
  out.layer["sim.host_ns_per_event"] = run_s / events * 1e9;
  out.layer["phy.frames_sent"] = sent / n;
  out.layer["phy.frames_delivered"] = delivered / n;
  out.layer["phy.frames_lost"] = lost / n;
  out.layer["phy.deliveries_per_frame"] = sent > 0 ? delivered / sent : 0.0;
  out.layer["phy.host_ns_per_frame"] = sent > 0 ? run_s / sent * 1e9 : 0.0;
  out.layer["phy.shard.windows"] = windows / n;
  out.layer["phy.shard.halo_messages"] = halo / n;
  out.layer["phy.shard.migrations"] = migrations / n;
  out.layer["phy.shard.mailbox_high_water"] = static_cast<double>(high_water);
  out.layer["phy.shard.world_build_s"] = build_s / n;
  if (args.trace) {
    // Reference only: the same field on a 2- and a 4-worker pool, the
    // median of three runs each. Digests must still match the inline run.
    for (const unsigned workers : {2u, 4u}) {
      spider::sim::ThreadPool pool(workers);
      std::vector<double> runs;
      for (int rep = 0; rep < 3; ++rep) {
        const ShardOp pooled = run_once(ops[0].seed, kStrips, &pool);
        expect(pooled.digest == ops[0].digest,
               "pooled run with " + std::to_string(workers) +
                   " workers keeps the digest");
        runs.push_back(pooled.run_s);
      }
      out.layer[workers == 2 ? "phy.shard.pooled_run_s_w2"
                             : "phy.shard.pooled_run_s_w4"] = median(runs);
    }
  }
  return out;
}

}  // namespace spiderbench
