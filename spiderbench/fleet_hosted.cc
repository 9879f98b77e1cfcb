// fleet_hosted: "fleet" runs submitted to an in-process server::RunServer
// over its AF_UNIX socket.
//
// One op is one submission: it is timed from writing the submit line until
// the follower connection reads that run's run_end ("finished") line. The
// load is this one thread on two connections, one submitting and one
// following, read together with poll() so the follower never stalls (the
// server drops a follower whose socket stays full). Op i's fleet seed is
// derived from --seed and i; the other scenario arguments are fixed.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "server/run_server.h"
#include "telemetry/json.h"
#include "workloads.h"

namespace spiderbench {
namespace {

namespace server = spider::server;
namespace telemetry = spider::telemetry;

constexpr int kClients = 8;
constexpr int kAps = 16;
constexpr int kDurationS = 240;
constexpr int kReplyTimeoutMs = 60000;

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const char* p = line.data();
  std::size_t n = line.size();
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Reads whatever is available on fd into buf; false on EOF or error.
bool read_some(int fd, std::string& buf) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

struct HostedOp {
  bool ok = false;  // acked with a run tag and finished
  std::uint32_t run = 0;
  double ack_s = 0.0;
  double total_s = 0.0;
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint64_t stream_dropped = 0;
  std::vector<std::string> metrics_lines;  // kept on request
};

// A started server plus the submit and follow connections.
class Hosted {
 public:
  explicit Hosted(const std::string& socket_path)
      : server_(config_for(socket_path)) {
    {
      Span span("server.start");
      const double t0 = now_s();
      started_ = server_.start();
      start_s_ = now_s() - t0;
    }
    if (!started_) return;
    submit_fd_ = connect_unix(socket_path);
    follow_fd_ = connect_unix(socket_path);
    if (submit_fd_ < 0 || follow_fd_ < 0 ||
        !send_line(follow_fd_, "{\"cmd\":\"follow\"}\n")) {
      started_ = false;
      return;
    }
    // The follow reply starts with one snapshot line.
    std::string first;
    started_ = read_line(follow_fd_, follow_buf_, first);
  }
  ~Hosted() {
    if (submit_fd_ >= 0) ::close(submit_fd_);
    if (follow_fd_ >= 0) ::close(follow_fd_);
    server_.stop();
  }
  Hosted(const Hosted&) = delete;
  Hosted& operator=(const Hosted&) = delete;

  bool started() const { return started_; }
  double start_s() const { return start_s_; }
  server::RunServer& server() { return server_; }

  HostedOp submit_fleet(std::uint64_t seed, bool keep_metrics) {
    Span op_span("server.fleet_op");
    HostedOp op;
    const double t0 = now_s();
    char request[160];
    std::snprintf(request, sizeof(request),
                  "{\"cmd\":\"submit\",\"scenario\":\"fleet\",\"seed\":%llu,"
                  "\"duration_s\":%d,\"aps\":%d,\"clients\":%d}\n",
                  static_cast<unsigned long long>(seed), kDurationS, kAps,
                  kClients);
    if (!send_line(submit_fd_, request)) return op;
    bool acked = false, finished = false;
    std::string end_line;
    const double deadline = t0 + kReplyTimeoutMs / 1e3;
    while (!(acked && finished)) {
      // Once acked, the submit connection is no longer watched: a hang-up
      // there must not turn this loop into a spin.
      pollfd fds[2] = {{acked ? -1 : submit_fd_, POLLIN, 0},
                       {follow_fd_, POLLIN, 0}};
      const int wait_ms = static_cast<int>((deadline - now_s()) * 1e3);
      if (wait_ms <= 0 || ::poll(fds, 2, wait_ms) <= 0) {
        return op;  // no reply in time: a failed op
      }
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!read_some(submit_fd_, submit_buf_)) return op;
        const std::size_t nl = submit_buf_.find('\n');
        if (nl != std::string::npos) {
          const std::string reply = submit_buf_.substr(0, nl);
          submit_buf_.erase(0, nl + 1);
          op.ack_s = now_s() - t0;
          telemetry::JsonValue v;
          if (!telemetry::parse_json(reply, v) || !v.is_object()) return op;
          const telemetry::JsonValue* ok = v.find("ok");
          const telemetry::JsonValue* run = v.find("run");
          if (ok == nullptr || !ok->boolean || run == nullptr) return op;
          op.run = static_cast<std::uint32_t>(run->number);
          acked = true;
        }
      }
      if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!read_some(follow_fd_, follow_buf_)) return op;
        std::size_t begin = 0;
        for (std::size_t nl; (nl = follow_buf_.find('\n', begin)) !=
                             std::string::npos;
             begin = nl + 1) {
          const std::string_view line(follow_buf_.data() + begin, nl - begin);
          ++op.lines;
          op.bytes += line.size() + 1;
          if (line.find("\"kind\":\"run_end\"") != std::string_view::npos) {
            end_line.assign(line);
            finished = true;
          } else if (keep_metrics &&
                     line.find("\"kind\":\"metrics\"") !=
                         std::string_view::npos) {
            op.metrics_lines.emplace_back(line);
          }
        }
        follow_buf_.erase(0, begin);
      }
    }
    op.total_s = now_s() - t0;
    telemetry::JsonValue end;
    if (!telemetry::parse_json(end_line, end) ||
        static_cast<std::uint32_t>(end.number_or("run", -1)) != op.run) {
      return op;
    }
    op.events = static_cast<std::uint64_t>(end.number_or("events", 0));
    op.digest = std::strtoull(end.string_or("digest", "0").c_str(), nullptr, 16);
    op.stream_dropped =
        static_cast<std::uint64_t>(end.number_or("stream_dropped", 0));
    op.ok = true;
    return op;
  }

  // Round trip of one ping on the submit connection; negative on failure.
  double ping() {
    Span span("server.ping");
    const double t0 = now_s();
    if (!send_line(submit_fd_, "{\"cmd\":\"ping\"}\n")) return -1.0;
    std::string reply;
    if (!read_line(submit_fd_, submit_buf_, reply)) return -1.0;
    return reply.find("\"pong\"") != std::string::npos ? now_s() - t0 : -1.0;
  }

 private:
  // The server's default stream cadence (100 ms) and ring, on a socket of
  // our own, with hosted runs untraced (spider-serve --no-trace): with the
  // trace recorder on, span records overflow the stream ring and the
  // streamed final counters no longer reconcile (see the README).
  static server::RunServerConfig config_for(const std::string& socket_path) {
    server::RunServerConfig config;
    config.socket_path = socket_path;
    config.trace_runs = false;
    return config;
  }

  static bool read_line(int fd, std::string& buf, std::string& line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0 || !read_some(fd, buf)) {
        return false;
      }
    }
  }

  server::RunServer server_;
  bool started_ = false;
  double start_s_ = 0.0;
  int submit_fd_ = -1;
  int follow_fd_ = -1;
  std::string submit_buf_;
  std::string follow_buf_;
};

// Fleet seeds stay below 2^53: the submit line is JSON and the server reads
// its numbers as doubles, so a larger seed would not arrive exactly.
std::uint64_t fleet_seed(std::uint64_t seed, std::uint64_t i) {
  return derive_seed(seed, i) >> 11;
}

// Final counter values of a hosted run: the last value of each counter over
// its metrics lines (lines carry cumulative values of changed metrics).
std::map<std::string, std::uint64_t> final_counters(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& line : lines) {
    telemetry::JsonValue v;
    if (!telemetry::parse_json(line, v)) continue;
    if (const telemetry::JsonValue* counters = v.find("counters")) {
      for (const auto& [name, value] : counters->object) {
        out[name] = static_cast<std::uint64_t>(value.number);
      }
    }
  }
  return out;
}

}  // namespace

Outcome run_fleet_hosted(const Args& args) {
  Outcome out;
  const std::string socket_base =
      args.out_dir + "/fleet-" + std::to_string(::getpid());
  std::unique_ptr<Hosted> hosted;
  std::vector<double> start_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    hosted.reset();  // the previous repetition's server stops first
    const double t0 = now_s();
    hosted = std::make_unique<Hosted>(socket_base + "-" + std::to_string(rep) +
                                      ".sock");
    expect(hosted->started(), "run server starts and accepts both connections");
    if (!hosted->started()) return out;
    start_s.push_back(hosted->start_s());
    const HostedOp warm = hosted->submit_fleet(kWarmUpSeed, false);
    expect(warm.ok, "set-up submission finishes");
    out.setup_s.push_back(now_s() - t0);
  }

  // Runs whose streamed counters are compared with an in-process world.
  std::vector<std::size_t> checked = {0};
  std::vector<HostedOp> ops;
  std::vector<std::uint64_t> seeds;
  std::vector<double> pings;
  const double start = now_s();
  do {
    const std::size_t i = ops.size();
    seeds.push_back(fleet_seed(args.seed, i));
    const bool keep = i == 0 || i % 64 == 63;
    const double t0 = now_s();
    ops.push_back(hosted->submit_fleet(seeds.back(), keep));
    out.op_s.push_back(now_s() - t0);
    if (keep && i > 0) checked.push_back(i);
    if (args.trace) pings.push_back(hosted->ping());
  } while (now_s() - start < args.seconds || ops.size() < kMinOps);
  out.timed_wall_s = now_s() - start;
  out.attempted = ops.size();

  double ack_s = 0.0, lines = 0.0, bytes = 0.0, dropped = 0.0;
  for (const HostedOp& op : ops) {
    if (!op.ok) {
      ++out.failed;
      continue;
    }
    out.sim_events += static_cast<double>(op.events);
    out.sim_host_s += op.total_s;
    ack_s += op.ack_s;
    lines += static_cast<double>(op.lines);
    bytes += static_cast<double>(op.bytes);
    dropped += static_cast<double>(op.stream_dropped);
  }
  const double ok_ops = static_cast<double>(ops.size() - out.failed);

  // In-process twins of the checked runs: hosting and streaming must not
  // change a single counter, the digest or the event count.
  LayerCounters counters;
  double twin_bytes = 0.0, deployment_s = 0.0;
  for (const std::size_t i : checked) {
    const HostedOp& op = ops[i];
    if (!op.ok) continue;
    spider::core::FleetConfig scenario;
    {
      Span span("mobility.deployment_build");
      const double t0 = now_s();
      scenario = server::fleet_scenario(
          seeds[i], spider::sim::Time::seconds(kDurationS), kClients, kAps);
      deployment_s += now_s() - t0;
    }
    spider::core::FleetExperiment twin(std::move(scenario));
    const spider::core::FleetResults results = twin.run();
    const std::string where = "fleet run " + std::to_string(op.run);
    expect(twin.simulator().digest() == op.digest &&
               twin.simulator().events_executed() == op.events,
           where + ": hosted digest and events equal the in-process run");
    const telemetry::MetricsSnapshot snap = twin.simulator().telemetry().collect();
    const auto hosted_counters = final_counters(op.metrics_lines);
    // Every counter either side knows, compared both ways (a counter the
    // stream never carried reads 0).
    std::map<std::string, std::uint64_t> names = hosted_counters;
    for (const telemetry::CounterSample& c : snap.counters) names[c.name];
    bool same = !hosted_counters.empty();
    for (const auto& [name, unused] : names) {
      const auto it = hosted_counters.find(name);
      const std::uint64_t hosted_value =
          it == hosted_counters.end() ? 0 : it->second;
      const std::uint64_t local_value = snap.counter_value(name);
      if (hosted_value != local_value) {
        std::fprintf(stderr, "  %s: hosted %llu, in-process %llu\n",
                     name.c_str(), static_cast<unsigned long long>(hosted_value),
                     static_cast<unsigned long long>(local_value));
        same = false;
      }
    }
    expect(same, where + ": hosted final counters equal the in-process run's");
    const double fairness = results.fairness();
    expect(fairness > 0.0 && fairness <= 1.0 + 1e-12,
           where + ": fairness in (0, 1] (" + num(fairness) + ")");
    counters.add(snap);
    for (const auto& client : results.clients) {
      twin_bytes += static_cast<double>(client.traffic.total_bytes);
    }
  }
  expect(hosted->server().runs_failed() == 0, "the server failed no run");
  std::printf("fleet_hosted: %zu submissions, %zu compared in-process, "
              "%.0f stream lines and %.0f ring drops per op\n",
              ops.size(), checked.size(), ok_ops > 0 ? lines / ok_ops : 0.0,
              ok_ops > 0 ? dropped / ok_ops : 0.0);

  counters.report(out.layer);
  out.layer["sim.events_fired"] = static_cast<double>(ops.front().events);
  out.layer["sim.host_ns_per_event"] =
      out.sim_events > 0 ? out.sim_host_s / out.sim_events * 1e9 : 0.0;
  out.layer["tcp.bytes_delivered"] =
      twin_bytes / static_cast<double>(checked.size());
  out.layer["mobility.deployment_build_s"] =
      deployment_s / static_cast<double>(checked.size());
  out.layer["telemetry.stream_lines_per_op"] = ok_ops > 0 ? lines / ok_ops : 0.0;
  out.layer["telemetry.stream_bytes_per_op"] = ok_ops > 0 ? bytes / ok_ops : 0.0;
  out.layer["server.start_s"] = median(start_s);
  out.layer["server.submit_ack_s"] = ok_ops > 0 ? ack_s / ok_ops : 0.0;
  out.layer["server.ping_rtt_s"] = median(pings);
  out.layer["server.runs_failed"] =
      static_cast<double>(hosted->server().runs_failed());
  return out;
}

}  // namespace spiderbench
