#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"

namespace adba {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto n = static_cast<double>(n_ + other.n_);
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / n;
    mean_ += delta * static_cast<double>(other.n_) / n;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
    ADBA_EXPECTS(n_ > 0);
    return min_;
}

double RunningStats::max() const {
    ADBA_EXPECTS(n_ > 0);
    return max_;
}

void Samples::merge(const Samples& other) {
    if (other.xs_.empty()) return;
    xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
    sorted_ = xs_.size() <= 1;
}

void Samples::ensure_sorted() const {
    if (!sorted_) {
        std::sort(xs_.begin(), xs_.end());
        sorted_ = true;
    }
}

double Samples::mean() const {
    ADBA_EXPECTS(!xs_.empty());
    double s = 0.0;
    for (double x : xs_) s += x;
    return s / static_cast<double>(xs_.size());
}

double Samples::stddev() const {
    if (xs_.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double x : xs_) acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double Samples::min() const {
    ADBA_EXPECTS(!xs_.empty());
    ensure_sorted();
    return xs_.front();
}

double Samples::max() const {
    ADBA_EXPECTS(!xs_.empty());
    ensure_sorted();
    return xs_.back();
}

double Samples::sum() const {
    double s = 0.0;
    for (double x : xs_) s += x;
    return s;
}

double Samples::quantile(double q) const {
    ADBA_EXPECTS(!xs_.empty());
    ADBA_EXPECTS(q >= 0.0 && q <= 1.0);
    ensure_sorted();
    if (xs_.size() == 1) return xs_.front();
    const double rank = q * static_cast<double>(xs_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= xs_.size()) return xs_.back();
    return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

}  // namespace adba
