// Run-server gates (DESIGN.md "Live telemetry plane"): the AF_UNIX
// line-JSON protocol end to end — ping, submit, snapshot, follow, shutdown
// — against a real server hosting real (short) runs, plus the direct
// submit()/wait_idle() API and the determinism of the hosted scenarios.
#include "server/run_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "telemetry/json.h"
#include "telemetry/run_report.h"

namespace spider::server {
namespace {

std::string test_socket_path(const char* tag) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/spider-test-%ld-%s.sock",
                static_cast<long>(::getpid()), tag);
  return buf;
}

RunSubmission short_drive(std::uint64_t seed) {
  RunSubmission s;
  s.scenario = "drive";
  s.seed = seed;
  s.duration = sim::Time::seconds(5);
  s.aps = 6;
  return s;
}

// Blocking line-oriented client for the test side of the socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    // MSG_NOSIGNAL: the server drops connections idle for >5 s, so a send
    // racing that close must fail with EPIPE, not kill the test process.
    const std::string framed = line + "\n";
    return ::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(framed.size());
  }

  // Reads until the next newline (blocking; the server always answers).
  std::string read_line() {
    while (true) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(RunServer, DirectSubmitRunsToCompletion) {
  RunServerConfig config;
  config.socket_path = test_socket_path("direct");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  const std::uint32_t tag = server.submit(short_drive(7));
  server.submit(short_drive(9));
  server.wait_idle();
  EXPECT_EQ(server.runs_submitted(), 2u);
  EXPECT_EQ(server.runs_completed(), 2u);
  EXPECT_EQ(server.runs_failed(), 0u);

  telemetry::JsonValue snap;
  ASSERT_TRUE(telemetry::parse_json(server.exporter().snapshot_json(), snap));
  const telemetry::JsonValue* runs = snap.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 2u);
  EXPECT_EQ(static_cast<std::uint32_t>(runs->array[0].number_or("run", 99)),
            tag);
  for (const telemetry::JsonValue& run : runs->array) {
    EXPECT_EQ(run.string_or("state", ""), "finished");
    EXPECT_GT(run.number_or("events", 0), 0.0);
  }
  server.stop();
}

TEST(RunServer, HostedScenariosAreDeterministic) {
  RunServerConfig config;
  config.socket_path = test_socket_path("det");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());
  server.submit(short_drive(21));
  server.submit(short_drive(21));
  server.wait_idle();
  server.stop();

  telemetry::JsonValue snap;
  ASSERT_TRUE(telemetry::parse_json(server.exporter().snapshot_json(), snap));
  const telemetry::JsonValue* runs = snap.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 2u);
  // Same submission, same world: digests and event counts must agree even
  // though both runs streamed live through the shared exporter.
  EXPECT_EQ(runs->array[0].string_or("digest", "a"),
            runs->array[1].string_or("digest", "b"));
  EXPECT_EQ(runs->array[0].number_or("events", -1),
            runs->array[1].number_or("events", -2));
}

TEST(RunServer, SocketProtocolPingSubmitFollowShutdown) {
  RunServerConfig config;
  config.socket_path = test_socket_path("proto");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  std::uint32_t tag = 99;
  {
    Client client(config.socket_path);
    ASSERT_TRUE(client.ok());

    ASSERT_TRUE(client.send_line("{\"cmd\":\"ping\"}"));
    telemetry::JsonValue pong;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), pong));
    EXPECT_EQ(pong.string_or("kind", ""), "pong");

    ASSERT_TRUE(client.send_line(
        "{\"cmd\":\"submit\",\"scenario\":\"fleet\",\"seed\":3,"
        "\"duration_s\":4,\"aps\":6,\"clients\":2}"));
    telemetry::JsonValue accepted;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), accepted));
    const telemetry::JsonValue* ok = accepted.find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->boolean);
    tag = static_cast<std::uint32_t>(accepted.number_or("run", 99));

    ASSERT_TRUE(client.send_line("{\"cmd\":\"submit\",\"scenario\":\"bogus\"}"));
    telemetry::JsonValue rejected;
    ASSERT_TRUE(telemetry::parse_json(client.read_line(), rejected));
    EXPECT_NE(rejected.string_or("error", ""), "");

    server.wait_idle();
  }  // drop the control connection: a loaded machine can outlast the 5 s
     // idle timeout anyway

  {
    // A follower connecting after the run still gets the registry snapshot
    // line first — with the finished run's final state on it.
    Client follower(config.socket_path);
    ASSERT_TRUE(follower.ok());
    ASSERT_TRUE(follower.send_line("{\"cmd\":\"follow\"}"));
    telemetry::JsonValue snap;
    ASSERT_TRUE(telemetry::parse_json(follower.read_line(), snap));
    EXPECT_EQ(snap.string_or("kind", ""), "snapshot");
    EXPECT_EQ(snap.string_or("schema", ""), telemetry::kStreamSchema);
    const telemetry::JsonValue* runs = snap.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 1u);
    EXPECT_EQ(static_cast<std::uint32_t>(runs->array[0].number_or("run", 99)),
              tag);
    EXPECT_EQ(runs->array[0].string_or("state", ""), "finished");
  }  // the follower hangs up; the exporter unsubscribes its sink

  {
    Client control(config.socket_path);
    ASSERT_TRUE(control.ok());
    ASSERT_TRUE(control.send_line("{\"cmd\":\"shutdown\"}"));
    telemetry::JsonValue bye;
    ASSERT_TRUE(telemetry::parse_json(control.read_line(), bye));
    EXPECT_TRUE(server.shutdown_requested());
  }
  server.stop();
  EXPECT_EQ(server.runs_completed(), 1u);
  EXPECT_EQ(server.runs_failed(), 0u);
}

TEST(RunServer, StalledFollowerDoesNotWedgeServer) {
  RunServerConfig config;
  config.socket_path = test_socket_path("stall");
  // 1 ms cadence on a 5 s run: thousands of metrics lines, far more than an
  // AF_UNIX socket buffer holds — guarantees the stalled follower's buffer
  // fills mid-run.
  config.stream_cadence = sim::Time::millis(1);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  Client follower(config.socket_path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower.send_line("{\"cmd\":\"follow\"}"));
  ASSERT_NE(follower.read_line(), "");  // snapshot line
  // The follower now stops reading. The exporter must drop it (bounded
  // write budget) instead of blocking in send under its lock — which would
  // wedge the end-of-run detach and hang wait_idle forever.
  server.submit(short_drive(5));
  server.wait_idle();
  EXPECT_EQ(server.runs_completed(), 1u);
  server.stop();
}

TEST(RunServer, StopAbandonsQueuedRuns) {
  RunServerConfig config;
  config.socket_path = test_socket_path("abandon");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 6; ++i) server.submit(short_drive(100 + i));
  // stop() lands long before six runs can execute; the runner finishes at
  // most the run it already popped and abandons the rest of the queue.
  server.stop();
  EXPECT_LE(server.runs_completed(), 1u);
  EXPECT_EQ(server.runs_submitted(), 6u);
  // wait_idle must return despite the abandoned queue (stop_ short-circuits
  // the predicate), not hang on completed == submitted.
  server.wait_idle();
}

TEST(RunServer, ConcurrentClientsAreServedIndependently) {
  RunServerConfig config;
  config.socket_path = test_socket_path("multi");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());

  // First client connects and sits idle; with per-connection handler
  // threads the second client's ping answers immediately instead of
  // starving behind the first's 5 s idle window.
  Client idle_client(config.socket_path);
  ASSERT_TRUE(idle_client.ok());
  Client pinger(config.socket_path);
  ASSERT_TRUE(pinger.ok());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(pinger.send_line("{\"cmd\":\"ping\"}"));
  telemetry::JsonValue pong;
  ASSERT_TRUE(telemetry::parse_json(pinger.read_line(), pong));
  EXPECT_EQ(pong.string_or("kind", ""), "pong");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Serial handling would park this ping for the idle client's full 5 s
  // timeout; keep a wide margin for loaded machines.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);
  server.stop();
}

// Sends one request line and reports whether the reply says ok.
bool request_ok(Client& client, const std::string& line) {
  if (!client.send_line(line)) return false;
  telemetry::JsonValue reply;
  if (!telemetry::parse_json(client.read_line(), reply)) return false;
  const telemetry::JsonValue* ok = reply.find("ok");
  return ok != nullptr && ok->boolean;
}

std::string digest_hex(std::uint64_t digest) {
  std::string out;
  telemetry::append_json_hex64(out, digest);
  return out.substr(1, out.size() - 2);  // drop the JSON quotes
}

TEST(RunServer, SubmittedSeedAbove2To53IsExact) {
  RunServerConfig config;
  config.socket_path = test_socket_path("seed64");
  config.stream_cadence = sim::Time::millis(10);
  RunServer server(config);
  ASSERT_TRUE(server.start());
  {
    Client client(config.socket_path);
    ASSERT_TRUE(client.ok());
    // 2^63 + 1: a double would round it to 2^63.
    ASSERT_TRUE(request_ok(client,
                           "{\"cmd\":\"submit\",\"scenario\":\"drive\","
                           "\"seed\":9223372036854775809,\"duration_s\":5,"
                           "\"aps\":6}"));
  }
  server.wait_idle();
  server.stop();
  telemetry::JsonValue snap;
  ASSERT_TRUE(telemetry::parse_json(server.exporter().snapshot_json(), snap));
  const telemetry::JsonValue* runs = snap.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const std::string hosted = runs->array[0].string_or("digest", "");

  const auto in_process = [](std::uint64_t seed) {
    core::Experiment experiment(
        drive_scenario(seed, sim::Time::seconds(5), 6));
    experiment.run();
    return digest_hex(experiment.simulator().digest());
  };
  EXPECT_EQ(hosted, in_process((std::uint64_t{1} << 63) + 1));
  EXPECT_NE(hosted, in_process(std::uint64_t{1} << 63));
}

TEST(RunServer, SubmitRefusesNumbersItCannotHold) {
  RunServerConfig config;
  config.socket_path = test_socket_path("refuse");
  RunServer server(config);
  ASSERT_TRUE(server.start());
  {
    Client client(config.socket_path);
    ASSERT_TRUE(client.ok());
    const std::string fleet =
        "{\"cmd\":\"submit\",\"scenario\":\"fleet\",\"duration_s\":4,"
        "\"aps\":6,";
    for (const char* bad : {
             "\"clients\":NaN}",    // not JSON: refused as malformed
             "\"clients\":1e300}",  // finite, far out of range
             "\"clients\":1e999}",  // parses to infinity
             "\"clients\":2.5}",    // not a whole number
             "\"clients\":0}",
             "\"clients\":\"2\"}",  // not a number
             "\"clients\":2,\"duration_s\":-1}",
             "\"clients\":2,\"duration_s\":1e300}",
             "\"clients\":2,\"seed\":-1}",
             "\"clients\":2,\"seed\":1.5}",
             "\"clients\":2,\"seed\":18446744073709551616}",  // 2^64
         }) {
      EXPECT_FALSE(request_ok(client, fleet + bad)) << bad;
    }
    // The largest seed is accepted; nothing above was queued.
    EXPECT_EQ(server.runs_submitted(), 0u);
    EXPECT_TRUE(request_ok(client, fleet + "\"clients\":1,\"duration_s\":1,"
                                           "\"seed\":18446744073709551615}"));
  }
  server.wait_idle();
  server.stop();
  EXPECT_EQ(server.runs_submitted(), 1u);
  EXPECT_EQ(server.runs_failed(), 0u);
}

}  // namespace
}  // namespace spider::server
