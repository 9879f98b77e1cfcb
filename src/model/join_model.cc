#include "model/join_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spider::model {
namespace {

// Whole rounds in t seconds: floor(t / D) of the intended real values. A
// quotient within a few ulps of an integer is that integer, so a period
// binary floating point cannot hold (D = 0.3 s) still has j rounds at
// t = j*D.
int whole_rounds(double t, double period) {
  const double quotient = t / period;
  if (!(quotient < std::numeric_limits<int>::max())) {
    throw std::invalid_argument("join model: time in range out of bounds");
  }
  const double nearest = std::nearbyint(quotient);
  if (std::fabs(quotient - nearest) <=
      8.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, nearest)) {
    return static_cast<int>(nearest);
  }
  return static_cast<int>(std::floor(quotient));
}

// Eq. 7 one round at a time. After j calls to next_round(), failure() is
// 1 - p(f, j*D) = prod_{n=1..j} prod_{d=0..n-1} qbar(d): q_round_failure
// depends only on d = n - m, so round j+1 multiplies the failure by the
// prefix product P(j) = prod_{d=0..j} qbar(d). Each qbar is computed once.
class JoinWalk {
 public:
  JoinWalk(const JoinModelParams& params, double fraction)
      : params_(params), fraction_(std::min(fraction, 1.0)) {}

  double failure() const { return failure_; }

  void next_round() {
    prefix_ *= q_round_failure(params_, fraction_, rounds_++);
    failure_ *= prefix_;
    // Below 1e-15 the join is certain: p = 1 exactly from here on.
    if (failure_ < 1e-15) failure_ = 0.0;
  }

 private:
  const JoinModelParams& params_;
  double fraction_;
  int rounds_ = 0;
  double prefix_ = 1.0;
  double failure_ = 1.0;
};

}  // namespace

int requests_per_round(const JoinModelParams& params, double fraction) {
  // ceil((D*f_i - w) / c), per Eq. 6. The ceiling is what produces the
  // discontinuities Fig. 2 shows at f_i = 0.2, 0.4, 0.6, 0.8 (with the
  // paper's D = 500 ms and c = 100 ms).
  const double window = params.period * fraction - params.switch_delay;
  if (window <= 0.0) return 0;
  return static_cast<int>(std::ceil(window / params.request_interval));
}

double q_single(const JoinModelParams& params, double fraction,
                int round_delta, int segment) {
  if (!params.valid()) throw std::invalid_argument("JoinModelParams invalid");
  if (round_delta < 0 || segment < 1) return 0.0;

  const double c = params.request_interval;
  const double D = params.period;
  const double w = params.switch_delay;

  const double alpha_min = segment * c + params.beta_min;
  const double alpha_max = segment * c + params.beta_max;
  const double delta_min = round_delta * D + c - w;
  const double delta_max = (round_delta + fraction) * D + c - w;

  if (delta_min > alpha_max) return 0.0;
  if (delta_max < alpha_min) return 0.0;
  if (alpha_max == alpha_min) {
    // Degenerate (beta_max == beta_min): point mass either in or out.
    return (alpha_min >= delta_min && alpha_min <= delta_max) ? 1.0 : 0.0;
  }
  const double overlap =
      std::min(alpha_max, delta_max) - std::max(alpha_min, delta_min);
  return std::clamp(overlap / (alpha_max - alpha_min), 0.0, 1.0);
}

double q_round_failure(const JoinModelParams& params, double fraction,
                       int round_delta) {
  const int k_max = requests_per_round(params, fraction);
  const double both_survive = (1.0 - params.loss) * (1.0 - params.loss);
  double failure = 1.0;
  for (int k = 1; k <= k_max; ++k) {
    failure *= 1.0 - q_single(params, fraction, round_delta, k) * both_survive;
  }
  return failure;
}

double join_probability(const JoinModelParams& params, double fraction,
                        double time_in_range) {
  if (!params.valid()) throw std::invalid_argument("JoinModelParams invalid");
  if (fraction <= 0.0 || time_in_range <= 0.0) return 0.0;

  const int rounds = whole_rounds(time_in_range, params.period);
  JoinWalk walk(params, fraction);
  for (int j = 0; j < rounds && walk.failure() > 0.0; ++j) walk.next_round();
  return 1.0 - walk.failure();
}

double expected_join_time(const JoinModelParams& params, double fraction,
                          double time_in_range) {
  if (time_in_range <= 0.0) return 0.0;
  if (!params.valid()) throw std::invalid_argument("JoinModelParams invalid");
  const int rounds = whole_rounds(time_in_range, params.period);
  // E[min(T_join, T)] = integral over [0,T] of P(not yet joined at t) dt,
  // evaluated at round granularity (the model's native resolution). Once
  // the join is certain every later term is zero.
  JoinWalk walk(params, fraction);
  double expected = 0.0;
  for (int j = 0; j < rounds && walk.failure() > 0.0; ++j) {
    expected += params.period * walk.failure();
    walk.next_round();
  }
  // Partial tail beyond the last whole round.
  const double rest = time_in_range - rounds * params.period;
  expected += std::max(0.0, rest) * walk.failure();
  return std::min(expected, time_in_range);
}

}  // namespace spider::model
