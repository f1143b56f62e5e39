#include "analysis/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::an {

double rounds_ours(double n, double t) {
    ADBA_EXPECTS(n >= 1.0 && t >= 0.0);
    const double l = safe_log2(n);
    return std::min(t * t * l / n, t / l);
}

double rounds_chor_coan(double n, double t) {
    ADBA_EXPECTS(n >= 1.0 && t >= 0.0);
    return t / safe_log2(n);
}

double rounds_deterministic(double t) { return t + 1.0; }

double rounds_lower_bound(double n, double t) {
    ADBA_EXPECTS(n >= 1.0 && t >= 0.0);
    return t / std::sqrt(n * safe_log2(n));
}

double crossover_t(double n) {
    ADBA_EXPECTS(n >= 1.0);
    const double l = safe_log2(n);
    return n / (l * l);
}

double paley_zygmund(double theta, double ex, double ex2) {
    ADBA_EXPECTS(theta >= 0.0 && theta <= 1.0);
    ADBA_EXPECTS(ex2 > 0.0);
    const double one_minus = 1.0 - theta;
    return one_minus * one_minus * ex * ex / ex2;
}

double coin_common_prob_lower(double n, double f) {
    ADBA_EXPECTS(n >= 4.0);
    ADBA_EXPECTS(f >= 0.0);
    if (f > 0.5 * std::sqrt(n)) return 0.0;  // theorem precondition
    const double g = n - f;  // honest nodes
    // X = sum of g fair ±1 flips: E[X^2] = g, E[X^4] = 3g^2 - 2g.
    // PZ on X^2 bounds P(X^2 > n/4) = P(|X| > ½ sqrt(n)): both tails at once.
    const double theta = n / (4.0 * g);
    if (theta >= 1.0) return 0.0;
    return paley_zygmund(theta, g, 3.0 * g * g - 2.0 * g);
}

}  // namespace adba::an
