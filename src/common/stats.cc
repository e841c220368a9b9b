#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace palette {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (retain_) {
    samples_.push_back(value);
  }
}

double RunningStats::percentile(double p) const {
  if (!retain_ || samples_.empty()) {
    return 0.0;
  }
  return Percentile(samples_, p);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (count_ < 2) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {

// Clamps a percentile rank into [0, 100]; NaN maps to 0 (the documented
// defensive contract in stats.h).
double ClampRank(double p) {
  if (std::isnan(p) || p < 0.0) {
    return 0.0;
  }
  return p > 100.0 ? 100.0 : p;
}

// Linear interpolation between closest ranks: the percentile reads the
// order statistics at positions `lo` and `lo + 1` (clamped), weighted by
// `frac`.
struct Rank {
  std::size_t lo = 0;
  double frac = 0;
};

Rank RankOf(double p, std::size_t n) {
  const double rank = (ClampRank(p) / 100.0) * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return Rank{lo, rank - static_cast<double>(lo)};
}

// The percentile at `r` by selection instead of a sort. Requires every value
// in [0, from) to be no larger than any value in [from, end) and
// from <= r.lo; reorders [from, end) so that v[r.lo] holds the r.lo-th
// order statistic (and the prefix invariant then holds for from = r.lo).
// Reads the same two order statistics a sorted copy would, with the same
// arithmetic, so the result is bit-identical to sorting.
double SelectPercentile(std::vector<double>& v, std::size_t from, Rank r) {
  if (v.size() == 1) {
    return v[0];
  }
  const auto lo_it = v.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(from), lo_it,
                   v.end());
  const double lo = *lo_it;
  // Everything after lo_it is >= lo, so its minimum is the next order
  // statistic.
  const double hi =
      r.lo + 1 < v.size() ? *std::min_element(lo_it + 1, v.end()) : lo;
  return lo + r.frac * (hi - lo);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  return SelectPercentile(samples, 0, RankOf(p, samples.size()));
}

std::vector<double> Percentiles(std::vector<double> samples,
                                const std::vector<double>& ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (samples.empty()) {
    return out;
  }
  // Select in ascending rank order, each on the tail the previous selection
  // left unsorted.
  std::vector<std::pair<Rank, std::size_t>> ranks;
  ranks.reserve(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ranks.emplace_back(RankOf(ps[i], samples.size()), i);
  }
  std::sort(ranks.begin(), ranks.end(), [](const auto& a, const auto& b) {
    return a.first.lo < b.first.lo;
  });
  std::size_t from = 0;
  for (const auto& [rank, i] : ranks) {
    out[i] = SelectPercentile(samples, from, rank);
    from = rank.lo;
  }
  return out;
}

double RelativeMaxLoad(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0;
  double max = samples[0];
  for (double v : samples) {
    sum += v;
    max = std::max(max, v);
  }
  const double mean = sum / static_cast<double>(samples.size());
  return mean > 0 ? max / mean : 0.0;
}

}  // namespace palette
