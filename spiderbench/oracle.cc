#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace spiderbench::oracle {

long whole_rounds(double t, double period) {
  const double quotient = t / period;
  const double nearest = std::nearbyint(quotient);
  if (std::fabs(quotient - nearest) <=
      8.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, nearest)) {
    return static_cast<long>(nearest);
  }
  return static_cast<long>(std::floor(quotient));
}

namespace {

long requests_in_round(const JoinModelParams& p, double f) {
  const double on_air = f * p.period - p.switch_delay;
  if (on_air <= 0.0) return 0;
  return static_cast<long>(std::ceil(on_air / p.request_interval));
}

}  // namespace

double q(const JoinModelParams& p, double f, long m, long n, long k) {
  // Times are measured from the start of round m (the origin does not change
  // the overlap; it keeps the arithmetic small).
  const double sent = p.switch_delay + static_cast<double>(k - 1) *
                                           p.request_interval;
  const double arrive_lo = sent + p.beta_min;
  const double arrive_hi = sent + p.beta_max;
  const double window_lo = static_cast<double>(n - m) * p.period;
  const double window_hi = window_lo + f * p.period;
  if (p.beta_max == p.beta_min) {
    return (arrive_lo >= window_lo && arrive_lo <= window_hi) ? 1.0 : 0.0;
  }
  const double overlap =
      std::min(arrive_hi, window_hi) - std::max(arrive_lo, window_lo);
  if (overlap <= 0.0) return 0.0;
  return overlap / (p.beta_max - p.beta_min);
}

double join_probability_rounds(const JoinModelParams& p, double f,
                               long rounds) {
  if (f <= 0.0 || rounds < 1) return 0.0;
  f = std::min(f, 1.0);
  const long requests = requests_in_round(p, f);
  const double both_survive = (1.0 - p.loss) * (1.0 - p.loss);
  double no_join = 1.0;
  for (long n = 1; n <= rounds; ++n) {
    for (long m = 1; m <= n; ++m) {
      double qbar = 1.0;  // Eq. 6
      for (long k = 1; k <= requests; ++k) {
        qbar *= 1.0 - both_survive * q(p, f, m, n, k);
      }
      no_join *= qbar;
    }
  }
  return 1.0 - no_join;
}

double join_probability(const JoinModelParams& p, double f, double t) {
  if (f <= 0.0 || t <= 0.0) return 0.0;
  return join_probability_rounds(p, f, whole_rounds(t, p.period));
}

double expected_join_time(const JoinModelParams& p, double f, double T) {
  if (T <= 0.0) return 0.0;
  const long rounds = whole_rounds(T, p.period);
  double expected = 0.0;
  for (long j = 0; j < rounds; ++j) {
    expected += p.period * (1.0 - join_probability_rounds(p, f, j));
  }
  const double rest =
      std::max(0.0, T - static_cast<double>(rounds) * p.period);
  expected += rest * (1.0 - join_probability_rounds(p, f, rounds));
  return std::min(expected, T);
}

}  // namespace spiderbench::oracle
