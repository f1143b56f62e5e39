// Descriptive statistics over simulation trial outcomes.
//
// Two flavors:
//  * RunningStats — O(1) memory Welford accumulator (mean / stddev / extrema)
//    for hot loops that never need quantiles.
//  * Samples      — stores every observation; adds exact quantiles. Used by
//    the experiment harness where trial counts are modest.
#pragma once

#include <cstddef>
#include <vector>

namespace adba {

/// Welford single-pass accumulator: numerically stable mean and variance.
class RunningStats {
public:
    void add(double x);

    /// Folds another accumulator in (Chan et al. pairwise combine). The
    /// result summarizes the union of both observation streams. Note: only
    /// numerically close to a single serial stream, not bit-identical — the
    /// executor's exactness guarantee covers Samples-based aggregates; route
    /// any RunningStats through Samples first if bit-exactness matters.
    void merge(const RunningStats& other);

    std::size_t count() const { return n_; }
    double mean() const { return mean_; }
    /// Unbiased sample variance; 0 for fewer than two observations.
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Stored-sample statistics with exact empirical quantiles.
class Samples {
public:
    /// Inline: the runners add four samples per trial.
    void add(double x) {
        xs_.push_back(x);
        sorted_ = xs_.size() <= 1;
    }
    void reserve(std::size_t n) { xs_.reserve(n); }

    /// Appends another sample set, preserving its current storage order.
    /// Merging per-chunk partials in chunk-index order therefore rebuilds
    /// exactly the observation sequence a single serial pass would have
    /// produced — the keystone of the executor's bit-identical aggregates.
    /// Caveat: quantile()/min()/max() lazily SORT the buffer, so querying a
    /// partial before merging it silently replaces insertion order with
    /// sorted order; inside executor chunk functions, only add() to partials.
    void merge(const Samples& other);

    std::size_t count() const { return xs_.size(); }
    bool empty() const { return xs_.empty(); }
    double mean() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const;
    /// Empirical quantile, q in [0,1], by the nearest-rank method.
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

    const std::vector<double>& values() const { return xs_; }

private:
    /// Sorts the sample buffer if dirty (quantiles need order).
    void ensure_sorted() const;

    mutable std::vector<double> xs_;
    mutable bool sorted_ = true;
};

}  // namespace adba
