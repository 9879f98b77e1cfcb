#include "workloads.h"

namespace spiderbench {

void LayerCounters::add(const spider::telemetry::MetricsSnapshot& s) {
  ops += 1.0;
  events_fired += s.counter_value("sim.events_fired");
  events_posted += s.counter_value("sim.events_posted");
  events_cancelled += s.counter_value("sim.events_cancelled");
  frames_sent += s.counter_value("phy.frames_sent");
  frames_delivered += s.counter_value("phy.frames_delivered");
  frames_lost += s.counter_value("phy.frames_lost");
  mac_associations += s.counter_value("mac.session.associations");
  mac_failures += s.counter_value("mac.session.failures");
  mac_retries += s.counter_value("mac.session.retries");
  dhcp_bound += s.counter_value("dhcp.bound");
  dhcp_discover += s.counter_value("dhcp.discover_sent");
  dhcp_timeouts += s.counter_value("dhcp.message_timeouts");
  driver_joins += s.counter_value("driver.joins");
  driver_join_attempts += s.counter_value("driver.join_attempts");
  driver_schedule_switches += s.counter_value("driver.schedule_switches");
}

void LayerCounters::report(std::map<std::string, double>& layer) const {
  if (ops <= 0.0) return;
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  layer["sim.cancel_ratio"] = ratio(events_cancelled, events_posted);
  layer["phy.frames_sent"] = per_op(frames_sent);
  layer["phy.frames_delivered"] = per_op(frames_delivered);
  layer["phy.frames_lost"] = per_op(frames_lost);
  layer["phy.deliveries_per_frame"] = ratio(frames_delivered, frames_sent);
  layer["mac.associations"] = per_op(mac_associations);
  layer["mac.failures"] = per_op(mac_failures);
  layer["mac.retries"] = per_op(mac_retries);
  layer["dhcpd.bound"] = per_op(dhcp_bound);
  layer["dhcpd.message_timeouts"] = per_op(dhcp_timeouts);
  layer["dhcpd.bound_per_discover"] = ratio(dhcp_bound, dhcp_discover);
  layer["core.driver.joins_per_attempt"] =
      ratio(driver_joins, driver_join_attempts);
  layer["core.driver.schedule_switches"] = per_op(driver_schedule_switches);
}

}  // namespace spiderbench
