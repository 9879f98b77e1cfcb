#include "model/join_model.h"
#include "model/join_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace spider::model {
namespace {

JoinModelParams paper_params(double beta_max = 10.0) {
  JoinModelParams p;  // D=0.5, w=0.007, c=0.1, beta_min=0.5, h=0.1
  p.beta_max = beta_max;
  return p;
}

TEST(RequestsPerRound, CeilingOfWindowOverInterval) {
  const JoinModelParams p = paper_params();
  // (0.5*0.5 - 0.007) / 0.1 = 2.43 -> 3 requests.
  EXPECT_EQ(requests_per_round(p, 0.5), 3);
  // (0.5*1.0 - 0.007) / 0.1 = 4.93 -> 5.
  EXPECT_EQ(requests_per_round(p, 1.0), 5);
  // Tiny fraction still gets one request (the paper's ceiling).
  EXPECT_EQ(requests_per_round(p, 0.1), 1);
  EXPECT_EQ(requests_per_round(p, 0.0), 0);
}

TEST(QSingle, IsAProbability) {
  const JoinModelParams p = paper_params();
  for (int delta = 0; delta < 10; ++delta) {
    for (int k = 1; k <= 5; ++k) {
      const double q = q_single(p, 0.4, delta, k);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST(QSingle, ZeroOutsideReachableRounds) {
  const JoinModelParams p = paper_params(2.0);
  // beta_max = 2 s: responses arrive within ~2.1 s => delta <= 4 rounds
  // (D = 0.5 s). Far-future rounds have zero probability.
  EXPECT_EQ(q_single(p, 0.5, 40, 1), 0.0);
}

TEST(QSingle, InvalidInputs) {
  const JoinModelParams p = paper_params();
  EXPECT_EQ(q_single(p, 0.5, -1, 1), 0.0);
  EXPECT_EQ(q_single(p, 0.5, 0, 0), 0.0);
  JoinModelParams bad = p;
  bad.loss = 1.5;
  EXPECT_THROW(q_single(bad, 0.5, 0, 1), std::invalid_argument);
}

TEST(QSingle, DegenerateUniformHandled) {
  JoinModelParams p = paper_params();
  p.beta_min = p.beta_max = 1.0;  // point mass at 1 s
  // The response lands exactly 1 s after the request. For f=1.0 the window
  // covers the whole timeline, so some (delta,k) must have q=1.
  double max_q = 0.0;
  for (int delta = 0; delta < 5; ++delta) {
    for (int k = 1; k <= requests_per_round(p, 1.0); ++k) {
      max_q = std::max(max_q, q_single(p, 1.0, delta, k));
    }
  }
  EXPECT_DOUBLE_EQ(max_q, 1.0);
}

TEST(QRoundFailure, OneWithoutRequests) {
  const JoinModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(q_round_failure(p, 0.0, 0), 1.0);
}

TEST(QRoundFailure, LossIncreasesFailure) {
  JoinModelParams lossless = paper_params();
  lossless.loss = 0.0;
  JoinModelParams lossy = paper_params();
  lossy.loss = 0.5;
  EXPECT_LT(q_round_failure(lossless, 0.5, 1),
            q_round_failure(lossy, 0.5, 1));
}

TEST(JoinProbability, BoundaryCases) {
  const JoinModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(join_probability(p, 0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(join_probability(p, 0.5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(join_probability(p, 0.5, 0.3), 0.0);  // < one round
  EXPECT_GT(join_probability(p, 1.0, 60.0), 0.999);
}

TEST(JoinProbability, MatchesPaperQuotedValues) {
  // "the probability of getting a lease during the first t = 4 seconds
  //  falls from 75% to 20% when the percentage of time devoted to the AP
  //  reduces from 30% to 10%" (Section 2.1.2, beta_max = 5 s).
  const JoinModelParams p = paper_params(5.0);
  EXPECT_NEAR(join_probability(p, 0.30, 4.0), 0.75, 0.05);
  EXPECT_NEAR(join_probability(p, 0.10, 4.0), 0.20, 0.05);
}

TEST(JoinProbability, ShorterBetaMaxHelps) {
  EXPECT_GT(join_probability(paper_params(5.0), 0.4, 4.0),
            join_probability(paper_params(10.0), 0.4, 4.0));
}

TEST(JoinProbability, MoreTimeInRangeHelps) {
  const JoinModelParams p = paper_params();
  EXPECT_LT(join_probability(p, 0.4, 2.0), join_probability(p, 0.4, 8.0));
}

// Property sweep: p(f, t) must be a probability and (weakly) monotone in f
// across the whole parameter grid.
class JoinProbabilitySweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(JoinProbabilitySweep, InUnitIntervalAndMonotoneInFraction) {
  const auto [beta_max, loss, t] = GetParam();
  JoinModelParams p = paper_params(beta_max);
  p.loss = loss;
  double prev = 0.0;
  for (double f = 0.0; f <= 1.0001; f += 0.05) {
    const double prob = join_probability(p, f, t);
    EXPECT_GE(prob, 0.0);
    EXPECT_LE(prob, 1.0);
    EXPECT_GE(prob, prev - 1e-9) << "f=" << f;
    prev = prob;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JoinProbabilitySweep,
    ::testing::Combine(::testing::Values(2.0, 5.0, 10.0),
                       ::testing::Values(0.0, 0.1, 0.3),
                       ::testing::Values(2.0, 4.0, 10.0)));

// Property sweep: the closed form must agree with Monte-Carlo within the
// sampling error bars (the paper's Fig. 2 corroboration).
class ModelVsMonteCarlo
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ModelVsMonteCarlo, StatisticallyEquivalent) {
  const auto [fraction, beta_max] = GetParam();
  const JoinModelParams p = paper_params(beta_max);
  const double model = join_probability(p, fraction, 4.0);
  const auto mc =
      monte_carlo_join_probability(p, fraction, 4.0, sim::Rng(77), 50, 200);
  // Allow 4 standard errors plus a small model-independence slack.
  const double tolerance = 4.0 * mc.stddev / std::sqrt(50.0) + 0.04;
  EXPECT_NEAR(model, mc.mean, tolerance)
      << "f=" << fraction << " beta_max=" << beta_max;
}

INSTANTIATE_TEST_SUITE_P(
    Fig2Grid, ModelVsMonteCarlo,
    ::testing::Combine(::testing::Values(0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(5.0, 10.0)));

TEST(ExpectedJoinTime, BoundedByHorizon) {
  const JoinModelParams p = paper_params();
  for (double f : {0.1, 0.5, 1.0}) {
    const double g = expected_join_time(p, f, 20.0);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 20.0);
  }
}

TEST(ExpectedJoinTime, HopelessChannelConsumesWholeHorizon) {
  const JoinModelParams p = paper_params();
  EXPECT_DOUBLE_EQ(expected_join_time(p, 0.0, 10.0), 10.0);
}

TEST(ExpectedJoinTime, MonotoneDecreasingInFraction) {
  const JoinModelParams p = paper_params();
  double prev = 1e18;
  for (double f = 0.05; f <= 1.0; f += 0.05) {
    const double g = expected_join_time(p, f, 20.0);
    EXPECT_LE(g, prev + 1e-9);
    prev = g;
  }
}

// ---- Differential test against a literal Eq. 5-7 oracle -----------------
//
// Written from the model's statement (Section 2.1.1), not from
// join_model.cc: request k of round m leaves (m-1)*D + w + (k-1)*c into the
// timeline while the node is still on channel (before (m-1)*D + f*D); its
// response lands beta ~ U[beta_min, beta_max] later and is heard only inside
// a window [(n-1)*D, (n-1)*D + f*D]. Every (m, n, k) triple is evaluated on
// its own: no powers, no early exit, no round reusing another's product.
// Round counts are integers the caller derives from whole milliseconds, so
// the oracle shares no floating-point rounding rule with the model.
namespace literal {

double q(const JoinModelParams& p, double f, int m, int n, int k) {
  const double sent = p.switch_delay + (k - 1) * p.request_interval;
  const double window_lo = (n - m) * p.period;
  const double window_hi = window_lo + f * p.period;
  const double overlap = std::min(sent + p.beta_max, window_hi) -
                         std::max(sent + p.beta_min, window_lo);
  return overlap > 0.0 ? overlap / (p.beta_max - p.beta_min) : 0.0;
}

// 1 - Eq. 7 over exactly `rounds` whole rounds.
double no_join(const JoinModelParams& p, double f, int rounds) {
  double product = 1.0;
  for (int n = 1; n <= rounds; ++n) {
    for (int m = 1; m <= n; ++m) {
      for (int k = 1; p.switch_delay + (k - 1) * p.request_interval <
                         f * p.period;
           ++k) {
        product *= 1.0 - (1.0 - p.loss) * (1.0 - p.loss) * q(p, f, m, n, k);
      }
    }
  }
  return product;
}

// no_join(p, f, j) for j = 0..rounds, each from scratch.
std::vector<double> no_join_table(const JoinModelParams& p, double f,
                                  int rounds) {
  std::vector<double> table;
  for (int j = 0; j <= rounds; ++j) table.push_back(no_join(p, f, j));
  return table;
}

// g_T for T = t_ms / 1000 s and D = period_ms / 1000 s, from a table that
// covers the t_ms / period_ms whole rounds.
double g_T(const std::vector<double>& no_join, int period_ms, int t_ms) {
  const int rounds = t_ms / period_ms;
  double expected = 0.0;
  for (int j = 0; j < rounds; ++j) expected += period_ms / 1e3 * no_join[j];
  expected += (t_ms - rounds * period_ms) / 1e3 * no_join[rounds];
  return std::min(expected, t_ms / 1e3);
}

}  // namespace literal

constexpr double kProbTol = 1e-12;  // |p - p_oracle|; g_T gets kProbTol * T

JoinModelParams oracle_params(int period_ms, double beta_max, double loss) {
  JoinModelParams p = paper_params(beta_max);
  p.period = period_ms / 1e3;
  p.loss = loss;
  return p;
}

// Compares p at every t = j*D (whole rounds, where D = 0.3 s style periods
// used to lose one) and half a round past it, and g_T at every horizon in
// `horizons_ms`, for one parameter set and fraction.
void expect_matches_oracle(int period_ms, double beta_max, double loss,
                           double f, const std::vector<int>& horizons_ms) {
  const JoinModelParams p = oracle_params(period_ms, beta_max, loss);
  int longest_ms = 0;
  for (int t_ms : horizons_ms) longest_ms = std::max(longest_ms, t_ms);
  const std::vector<double> no_join =
      literal::no_join_table(p, f, longest_ms / period_ms);
  const double D = p.period;
  for (int j = 0; j < static_cast<int>(no_join.size()); ++j) {
    const double expected = 1.0 - no_join[j];
    ASSERT_NEAR(join_probability(p, f, j * D), expected, kProbTol)
        << "D=" << D << " beta_max=" << beta_max << " h=" << loss
        << " f=" << f << " j=" << j;
    ASSERT_NEAR(join_probability(p, f, (j + 0.5) * D), expected, kProbTol)
        << "D=" << D << " beta_max=" << beta_max << " h=" << loss
        << " f=" << f << " t=(" << j << "+0.5)D";
  }
  for (int t_ms : horizons_ms) {
    const double T = t_ms / 1e3;
    ASSERT_NEAR(expected_join_time(p, f, T),
                literal::g_T(no_join, period_ms, t_ms), kProbTol * T)
        << "D=" << D << " beta_max=" << beta_max << " h=" << loss
        << " f=" << f << " T=" << T;
  }
}

class LiteralOracleGrid : public ::testing::TestWithParam<int> {};

// f in {0.05 .. 1}, beta_max in {2, 5, 10}, h in {0, 0.1, 0.5}: every
// round up to 20 s, g_T below one round, at 4 s and at 20 s.
TEST_P(LiteralOracleGrid, MatchesUpTo20Seconds) {
  const int period_ms = GetParam();
  for (double beta_max : {2.0, 5.0, 10.0})
    for (double loss : {0.0, 0.1, 0.5})
      for (int i = 1; i <= 20; ++i) {
        expect_matches_oracle(period_ms, beta_max, loss, i * 0.05,
                              {period_ms - 1, 4000, 20000});
        if (HasFatalFailure()) return;
      }
}

// Fig. 4's longest time in range (2.5 m/s through 100 m): every round up to
// 80 s and g_T at 40 s and 80 s, on a coarser fraction grid.
TEST_P(LiteralOracleGrid, MatchesUpTo80Seconds) {
  const int period_ms = GetParam();
  for (double beta_max : {2.0, 5.0, 10.0})
    for (double f : {0.05, 0.25, 0.5, 1.0}) {
      expect_matches_oracle(period_ms, beta_max, 0.1, f, {40000, 80000});
      if (HasFatalFailure()) return;
    }
}

// 0.3, 0.4, 0.6 and 0.7 s are periods binary floating point cannot hold.
INSTANTIATE_TEST_SUITE_P(Periods, LiteralOracleGrid,
                         ::testing::Values(250, 300, 400, 500, 600, 700));

// Regressions: here floor(j*D / D) gave j - 1 rounds, so g_T gained up to
// one period over the oracle.
TEST(LiteralOracle, ExactAtPeriodsBinaryCannotHold) {
  expect_matches_oracle(300, 10.0, 0.1, 0.25, {20000});
  expect_matches_oracle(600, 10.0, 0.1, 0.25, {40000});
  // j*D is j whole rounds, not j - 1 (D = 0.3 s lost one first at j = 31).
  const JoinModelParams p = oracle_params(300, 10.0, 0.1);
  EXPECT_GT(join_probability(p, 0.25, 31 * p.period),
            join_probability(p, 0.25, 30.5 * p.period));
}

TEST(LiteralOracle, Edges) {
  const JoinModelParams p = oracle_params(300, 10.0, 0.1);
  // f = 0: never joins, so the whole horizon is spent waiting.
  EXPECT_EQ(join_probability(p, 0.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(expected_join_time(p, 0.0, 20.0), 20.0);
  // T < D: no whole round, no join.
  EXPECT_EQ(join_probability(p, 0.5, 0.299), 0.0);
  EXPECT_EQ(expected_join_time(p, 0.5, 0.299), 0.299);
  // T = 0.
  EXPECT_EQ(join_probability(p, 0.5, 0.0), 0.0);
  EXPECT_EQ(expected_join_time(p, 0.5, 0.0), 0.0);
}

TEST(LiteralOracle, InvalidParamsThrow) {
  JoinModelParams bad = paper_params();
  bad.period = 0.0;
  EXPECT_THROW(join_probability(bad, 0.5, 4.0), std::invalid_argument);
  EXPECT_THROW(expected_join_time(bad, 0.5, 4.0), std::invalid_argument);
  bad = paper_params();
  bad.beta_max = 0.1;  // below beta_min
  EXPECT_THROW(join_probability(bad, 0.5, 4.0), std::invalid_argument);
  EXPECT_THROW(expected_join_time(bad, 0.5, 4.0), std::invalid_argument);
  // A horizon that is not a finite number of rounds.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(join_probability(paper_params(), 0.5, inf),
               std::invalid_argument);
  EXPECT_THROW(expected_join_time(paper_params(), 0.5, inf),
               std::invalid_argument);
}

TEST(MonteCarlo, TrialIsDeterministicForSeed) {
  const JoinModelParams p = paper_params();
  sim::Rng a(5), b(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(simulate_join_trial(p, 0.4, 4.0, a),
              simulate_join_trial(p, 0.4, 4.0, b));
  }
}

TEST(MonteCarlo, ErrorBarsShrinkWithMoreRuns) {
  const JoinModelParams p = paper_params();
  const auto few = monte_carlo_join_probability(p, 0.4, 4.0, sim::Rng(5),
                                                20, 20);
  const auto many = monte_carlo_join_probability(p, 0.4, 4.0, sim::Rng(5),
                                                 20, 500);
  EXPECT_LT(many.stddev, few.stddev);
}

}  // namespace
}  // namespace spider::model
