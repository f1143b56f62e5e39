// Percentile-bootstrap confidence intervals for the experiment tables.
//
// Benches report means over a few dozen stochastic trials; a CI column
// makes "who wins" claims honest (bench_e3 prints one per t). Plain
// percentile bootstrap: resample with replacement B times, take the
// empirical quantiles of the resampled means.
#pragma once

#include <cstdint>
#include <vector>

#include "support/stats.hpp"

namespace adba::an {

struct ConfidenceInterval {
    double lo = 0.0;
    double hi = 0.0;
    double point = 0.0;  ///< sample mean
};

/// (1 - alpha) percentile-bootstrap CI for the mean of `samples`.
/// Deterministic given `seed`; B resamples (default 2000).
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples,
                                     double alpha = 0.05, std::uint32_t resamples = 2000,
                                     std::uint64_t seed = 0x0C1);

/// CI for mean(a) - mean(b) (independent samples); excludes 0 => the
/// difference is significant at level alpha.
ConfidenceInterval bootstrap_mean_diff_ci(const std::vector<double>& a,
                                          const std::vector<double>& b,
                                          double alpha = 0.05,
                                          std::uint32_t resamples = 2000,
                                          std::uint64_t seed = 0x0C2);

}  // namespace adba::an
