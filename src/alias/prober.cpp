#include "alias/prober.h"

namespace cfs {

double estimate_velocity(const IpIdSample* samples, std::size_t n) {
  if (n < 3) return -1.0;
  if (is_constant(samples, n)) return -1.0;
  // Accumulate modular deltas: assumes at most one wrap between samples,
  // which holds for counter rates well below 65536 / interval.
  double total = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint16_t delta = static_cast<std::uint16_t>(
        samples[i].ipid - samples[i - 1].ipid);
    total += delta;
  }
  const double span = samples[n - 1].t_s - samples[0].t_s;
  if (span <= 0.0) return -1.0;
  return total / span;
}

bool is_constant(const IpIdSample* samples, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (samples[i].ipid != samples[0].ipid) return false;
  return true;
}

}  // namespace cfs
