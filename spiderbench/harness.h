// Shared scaffolding for the benchmark workloads: the clock, the span
// recorder used by traced runs, per-run accounting, property checks and the
// result line.
//
// Every timed op runs on the calling thread in a closed loop (the next op
// starts when the previous one returns), so no scheduler fan-out enters an
// end-to-end number.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spiderbench {

double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its Chrome trace
};

// Deterministic 64-bit mixer (splitmix64 finaliser); every seeded input of
// the benchmark is derived through it from --seed.
std::uint64_t mix64(std::uint64_t x);
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

// Small seeded generator for op lists (independent of the library's RNG so
// that library changes cannot alter the benchmark's inputs).
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                          // [0, 1)
  std::size_t below(std::size_t n);          // [0, n)
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

// In-memory span recorder. Spans are recorded only when enabled (the traced
// run); a disabled recorder costs one branch per span.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  int begin(const char* name);
  void end(int id);

  // Chrome trace-event JSON ({"traceEvents":[...]}), parents as args.
  bool write_chrome(const std::string& path) const;
  // Self time per layer (the span name up to its first '.'), seconds:
  // span duration minus the part its child spans cover.
  std::map<std::string, double> self_seconds_by_layer() const;
  // Total duration and count per span name.
  std::map<std::string, std::pair<double, std::uint64_t>> totals_by_name()
      const;

 private:
  struct Rec {
    const char* name;
    double start;
    double end;
    int parent;
  };
  bool enabled_ = false;
  std::vector<Rec> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().begin(name)
                                         : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::instance().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main: raw samples, counts and layer
// metrics. main() turns it into the end-to-end metrics.
struct Outcome {
  std::vector<double> setup_s;  // one sample per set-up repetition
  std::vector<double> op_s;     // latency of every timed op
  double timed_wall_s = 0.0;    // wall seconds of the timed phase
  std::uint64_t attempted = 0;  // timed ops attempted
  std::uint64_t failed = 0;     // of which failed
  double sim_events = 0.0;      // simulated events executed by timed ops
  double sim_host_s = 0.0;      // host seconds of the timed ops that ran them
  std::map<std::string, double> layer;  // per-layer metric values by name
};

// Property checks. A failed check is reported on stderr and makes the run
// exit non-zero without a result line.
class Checks {
 public:
  static Checks& instance();
  void expect(bool ok, const std::string& what);
  std::size_t failures() const { return failures_; }
  std::size_t passed() const { return passed_; }

 private:
  std::size_t failures_ = 0;
  std::size_t passed_ = 0;
};

inline void expect(bool ok, const std::string& what) {
  Checks::instance().expect(ok, what);
}

double median(std::vector<double> v);
// Type-7 quantile (linear interpolation), q in [0, 1].
double quantile(std::vector<double> v, double q);
// The highest percentile of the ladder {50, 75, 90, 99, 99.9} that has at
// least ten samples beyond it; returns {percentile, value}.
std::pair<double, double> tail(const std::vector<double>& v);

double peak_rss_mb();

// "nproc=4 cpu=... build=Release" — printed by every run.
std::string hardware_context();

// Formats a double with every significant digit.
std::string num(double v);

}  // namespace spiderbench
