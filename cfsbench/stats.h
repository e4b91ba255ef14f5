// Pure statistics helpers of the benchmark: percentiles with a sample
// floor, the head/tail-10 medians, the fastest profile of repeated staged
// work, the alias-refresh cache hit ratio and
// the transport share of a served request. Free of I/O so that
// stats_test.cpp can pin their rules down.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace cfsbench {

// A percentile is reported only when at least this many samples lie
// beyond it; otherwise it would rest on a handful of outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

// Nearest-rank index of percentile p (0 < p < 1) in a sorted sample of
// size n: the smallest index whose cumulative share reaches p.
inline std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p * static_cast<double>(n));
  const auto r = static_cast<std::size_t>(std::max(1.0, rank));
  return std::min(r, n) - 1;
}

// Samples strictly after the percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

// Percentile p of `values`, or nullopt when fewer than kMinSamplesBeyond
// samples lie beyond it.
inline std::optional<double> percentile(std::vector<double> values,
                                        double p) {
  if (samples_beyond(values.size(), p) < kMinSamplesBeyond)
    return std::nullopt;
  const auto i = static_cast<std::ptrdiff_t>(rank_index(values.size(), p));
  std::nth_element(values.begin(), values.begin() + i, values.end());
  return values[static_cast<std::size_t>(i)];
}

// Plain median (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Median of the last ten values in sequence order (all of them when
// fewer): the late-step cost, which grows with accumulated state.
inline double tail10_median(const std::vector<double>& sequence) {
  const auto k = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(10, sequence.size()));
  return median(std::vector<double>(sequence.end() - k, sequence.end()));
}

// Median of the first ten values in sequence order.
inline double head10_median(const std::vector<double>& sequence) {
  const auto k = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(10, sequence.size()));
  return median(std::vector<double>(sequence.begin(), sequence.begin() + k));
}

// Fastest profile of a staged job repeated with the same work: each row
// is one repeat (a map, a stream pass) as its stage times in order, and
// position i of the result is the least time any repeat took for stage i.
// Host noise only ever slows a stage, and a burst of it seldom hits the
// same stage of every repeat, so the profile reads the job's own cost
// where whole-repeat totals take each burst in full. A position missing
// from a shorter row is taken over the rows that have it.
inline std::vector<double> fastest_profile(
    const std::vector<std::vector<double>>& repeats) {
  std::vector<double> profile;
  for (const auto& row : repeats)
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i < profile.size())
        profile[i] = std::min(profile[i], row[i]);
      else
        profile.push_back(row[i]);
    }
  return profile;
}

// Share of observations alias refreshes replayed from the per-trace cache
// rather than re-classified; 0 when no refresh touched any observation.
inline double cache_hit_ratio(double replayed, double reclassified) {
  const double total = replayed + reclassified;
  return total > 0.0 ? replayed / total : 0.0;
}

// Part of a request's end-to-end latency spent outside the handler
// (framing, socket, poll loop, client). Clamped at zero: the two medians
// come from different samples and may cross by noise.
inline double transport_share(double end_to_end, double handler) {
  return std::max(0.0, end_to_end - handler);
}

}  // namespace cfsbench
