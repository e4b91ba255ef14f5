// Self-test of the benchmark's pure helpers (stats.h). run.py runs it
// before every workload; it exits non-zero when a rule is broken.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "stats_test FAILED: %s\n", what);
  ++failures;
}

bool same(double a, double b) { return std::fabs(a - b) < 1e-12; }

// 1, 2, ..., n in descending order (percentile must not assume sorted).
std::vector<double> descending(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i > 0; --i) values.push_back(static_cast<double>(i));
  return values;
}

}  // namespace

int main() {
  using namespace cfsbench;

  // Percentiles need at least ten samples beyond them.
  expect(samples_beyond(20, 0.5) == 10, "p50 of 20 has 10 beyond");
  expect(samples_beyond(19, 0.5) == 9, "p50 of 19 has 9 beyond");
  expect(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  expect(samples_beyond(999, 0.99) == 9, "p99 of 999 has 9 beyond");
  expect(!percentile(descending(19), 0.5), "p50 of 19 samples is refused");
  expect(!percentile(descending(999), 0.99), "p99 of 999 samples is refused");
  expect(!percentile({}, 0.5), "percentile of nothing is refused");
  const auto p50 = percentile(descending(20), 0.5);
  expect(p50 && same(*p50, 10.0), "p50 of 1..20 is 10 (nearest rank)");
  const auto p99 = percentile(descending(1000), 0.99);
  expect(p99 && same(*p99, 990.0), "p99 of 1..1000 is 990");

  // Tail-10 and head-10 medians follow sequence order, not value order.
  std::vector<double> rising;
  for (int i = 1; i <= 25; ++i) rising.push_back(i);
  expect(same(tail10_median(rising), 20.5), "tail10 of 1..25 is 20.5");
  expect(same(head10_median(rising), 5.5), "head10 of 1..25 is 5.5");
  expect(same(tail10_median({9.0, 1.0, 3.0}), 3.0),
         "tail10 of a short sequence takes all of it");
  expect(same(tail10_median({}), 0.0), "tail10 of nothing is 0");
  expect(same(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median averages");

  // Fastest profile: the least time of each stage position over repeats.
  expect(fastest_profile({{3, 10, 300}, {2, 30, 100}, {1, 20, 200}}) ==
             std::vector<double>({1, 10, 100}),
         "each position takes its own fastest repeat");
  expect(fastest_profile({{1, 90}, {50, 10}}) == std::vector<double>({1, 10}),
         "a slow stretch of one repeat is replaced by another repeat");
  expect(fastest_profile({{4}, {2, 6}}) == std::vector<double>({2, 6}),
         "a short row leaves later positions to the others");
  expect(fastest_profile({}).empty(), "no repeats give no profile");

  // Cache hit ratio: replayed / (replayed + reclassified).
  expect(same(cache_hit_ratio(300, 100), 0.75), "300 replayed of 400");
  expect(same(cache_hit_ratio(0, 0), 0.0), "no refresh work reads 0");
  expect(same(cache_hit_ratio(0, 5), 0.0), "all re-classified reads 0");

  // Transport = end-to-end - handler, never negative.
  expect(same(transport_share(70.0, 25.0), 45.0), "70 - 25 = 45");
  expect(same(transport_share(20.0, 25.0), 0.0), "crossed medians clamp");

  if (failures == 0) std::puts("stats_test: ok");
  return failures == 0 ? 0 : 1;
}
