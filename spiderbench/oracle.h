// Independent oracle for the join model, written from the model's statement
// in the paper (Section 2.1.1) rather than from src/model:
//
//   A node is on channel i for the first f*D seconds of every period D. It
//   pays the switch delay w on arrival, then sends join request k of round m
//   at (m-1)*D + w + (k-1)*c, for k = 1..K with K = ceil((f*D - w) / c).
//   The response arrives beta ~ U[beta_min, beta_max] later and is received
//   only inside an on-channel window [(n-1)*D, (n-1)*D + f*D]. Requests and
//   responses are each lost with probability h.
//
//   Eq. 5  q(m,n,k): share of the response interval inside round n's window
//   Eq. 6  qbar(m,n) = prod_k (1 - (1-h)^2 q(m,n,k))
//   Eq. 7  p(f,t)    = 1 - prod_{n=1..s} prod_{m=1..n} qbar(m,n),
//                      s = floor(t/D) whole rounds
//   g_T(f)          = sum_{j=0..R-1} D (1 - p(f, jD)) + (T - R D)(1 - p(f, RD)),
//                      R = floor(T/D), capped at T
//
// Every pair (m, n) is evaluated on its own: no folding of equal n - m terms
// into powers and no early exit. Round counts are whole numbers of the real
// quotient t/D: a quotient within a few ulps of an integer is that integer,
// so a period such as D = 0.3 s, which binary floating point cannot hold
// exactly, still gets j rounds at t = j*D.
#pragma once

#include "model/join_model.h"

namespace spiderbench::oracle {

using spider::model::JoinModelParams;

// floor(t / D) of the intended real values (see above).
long whole_rounds(double t, double period);

// Eq. 5 for one request (k >= 1) of round m, response in round n.
double q(const JoinModelParams& p, double f, long m, long n, long k);

// Eq. 7 over exactly `rounds` whole rounds.
double join_probability_rounds(const JoinModelParams& p, double f,
                               long rounds);

// Eq. 7 at time t.
double join_probability(const JoinModelParams& p, double f, double t);

// g_T(f), the expected time before the join, capped at T.
double expected_join_time(const JoinModelParams& p, double f, double T);

}  // namespace spiderbench::oracle
