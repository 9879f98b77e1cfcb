#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace spiderbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return mix64(seed ^ mix64(a * 0x9e3779b97f4a7c15ull + mix64(b)));
}

std::uint64_t SeededRng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  return mix64(state_);
}

double SeededRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t SeededRng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Rec{name, now_s(), 0.0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (i > 0) out << ',';
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  r.name, (r.start - t0) * 1e6, (r.end - r.start) * 1e6, i,
                  r.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Rec& r : spans_) {
    if (r.parent >= 0) {
      child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += (spans_[i].end - spans_[i].start) - child[i];
  }
  return out;
}

std::map<std::string, std::pair<double, std::uint64_t>>
Tracer::totals_by_name() const {
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (const Rec& r : spans_) {
    auto& slot = out[r.name];
    slot.first += r.end - r.start;
    ++slot.second;
  }
  return out;
}

Checks& Checks::instance() {
  static Checks checks;
  return checks;
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
    return;
  }
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::pair<double, double> tail(const std::vector<double>& v) {
  // Percentiles in permille, so that the count beyond is exact arithmetic.
  int best = 500;
  for (int p : {750, 900, 990, 999}) {
    if (v.size() * static_cast<std::size_t>(1000 - p) >= 10 * 1000) best = p;
  }
  return {best / 10.0, quantile(v, best / 1000.0)};
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and would
  // report the launching interpreter's peak for small workloads.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string hardware_context() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return "nproc=" + std::to_string(nproc) + " cpu=\"" + cpu +
         "\" build=" SPIDERBENCH_BUILD_TYPE;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace spiderbench
