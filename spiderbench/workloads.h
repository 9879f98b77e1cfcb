// The four workloads. Each runs its set-up repetitions, its timed closed
// loop of whole rounds for Args::seconds, and then its property checks
// (failures are recorded through spiderbench::expect).
#pragma once

#include <cstdint>

#include "core/experiment.h"
#include "harness.h"
#include "telemetry/metrics.h"

namespace spiderbench {

Outcome run_model_solve(const Args& args);
Outcome run_table2_drive(const Args& args);
Outcome run_fleet_hosted(const Args& args);
Outcome run_city_shard(const Args& args);

// Set-up repetitions per run; setup_s is their median. Each set-up builds
// the run's seeded inputs for its first round and then runs a warm-up op
// on fixed inputs, so that setup_s does not depend on --seed.
inline constexpr int kSetupRepetitions = 5;
inline constexpr std::uint64_t kWarmUpSeed = 1;

// Fewest timed ops a run completes, so that op_tail_s is p90 on every run
// (p90 needs 100 ops; a slow moment of the host must not drop a run below,
// and runs stay well under the 1000 ops p99 would need).
inline constexpr std::size_t kMinOps = 100;

// Per-op accumulation of the layer counters a world publishes through its
// telemetry registry (mac, dhcpd, driver, sim, phy).
struct LayerCounters {
  double ops = 0.0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_posted = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t mac_associations = 0;
  std::uint64_t mac_failures = 0;
  std::uint64_t mac_retries = 0;
  std::uint64_t dhcp_bound = 0;
  std::uint64_t dhcp_discover = 0;
  std::uint64_t dhcp_timeouts = 0;
  std::uint64_t driver_joins = 0;
  std::uint64_t driver_join_attempts = 0;
  std::uint64_t driver_schedule_switches = 0;

  void add(const spider::telemetry::MetricsSnapshot& snapshot);
  // Writes the per-op means (and ratios) into `layer`.
  void report(std::map<std::string, double>& layer) const;
};

}  // namespace spiderbench
