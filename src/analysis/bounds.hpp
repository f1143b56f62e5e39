// Closed-form bound curves from the paper, used as the "theory" columns of
// every experiment table (constants set to 1 unless the paper names one —
// we compare growth shapes, not constants).
#pragma once

#include <cstdint>

namespace adba::an {

/// Theorem 2: O(min(t^2 log n / n, t / log n)) rounds (our protocol).
double rounds_ours(double n, double t);

/// Chor-Coan 1985: O(t / log n) expected rounds.
double rounds_chor_coan(double n, double t);

/// Deterministic protocols: t + 1 rounds (Fischer-Lynch lower bound, matched
/// by Dolev et al. / Garay-Moses; Phase-King measures 2(t+1)).
double rounds_deterministic(double t);

/// Bar-Joseph & Ben-Or: Omega(t / sqrt(n log n)) rounds (Theorem 1).
double rounds_lower_bound(double n, double t);

/// The t below which Theorem 2 strictly improves on Chor-Coan:
/// t^2 log n / n < t / log n  <=>  t < n / log^2 n.
double crossover_t(double n);

/// Theorem 3's proof-level lower bound on P(all honest output the same bit)
/// for Algorithm 1 with g >= n - f honest nodes and f <= ½ sqrt(n) corrupted:
/// applying Paley-Zygmund to X^2 bounds both tails of X at once,
///   P(|X| > ½ sqrt(n)) >= (1-θ)^2 g^2 / (3g^2 - 2g),  θ = n / (4g),
/// and commonness holds on that event, so P(common) >= that bound
/// (>= 1/6 for g >= n - ½ sqrt(n); the paper quotes 1/12 per tail).
double coin_common_prob_lower(double n, double f);

/// Paley-Zygmund right-hand side for a nonnegative variable:
/// (1-θ)^2 E[X]^2 / E[X^2].
double paley_zygmund(double theta, double ex, double ex2);

}  // namespace adba::an
