#include "alias/mbt.h"

#include <algorithm>

namespace cfs {
namespace {

constexpr double kVelocityRatioMax = 1.25;  // sieve: velocities this close

}  // namespace

bool velocities_compatible(double va, double vb) {
  if (va <= 0.0 || vb <= 0.0) return false;
  if (va > kRandomVelocityCutoff || vb > kRandomVelocityCutoff) return false;
  const double ratio = va > vb ? va / vb : vb / va;
  return ratio <= kVelocityRatioMax;
}

bool monotonic_bounds_test(const IpIdSample* a, std::size_t na,
                           const IpIdSample* b, std::size_t nb,
                           IpIdSample* merged) {
  if (na < 3 || nb < 3) return false;
  if (is_constant(a, na) || is_constant(b, nb)) return false;

  const double va = estimate_velocity(a, na);
  const double vb = estimate_velocity(b, nb);
  if (!velocities_compatible(va, vb)) return false;
  const double v = (va + vb) / 2.0;

  // Merge by timestamp and verify each consecutive modular delta fits the
  // shared-counter budget for that gap.
  std::merge(a, a + na, b, b + nb, merged,
             [](const IpIdSample& x, const IpIdSample& y) {
               return x.t_s < y.t_s;
             });

  const std::size_t n = na + nb;
  for (std::size_t i = 1; i < n; ++i) {
    const double gap = merged[i].t_s - merged[i - 1].t_s;
    const std::uint16_t delta = static_cast<std::uint16_t>(
        merged[i].ipid - merged[i - 1].ipid);
    const double budget =
        std::max(kMinGapAllowance, v * gap * kVelocitySlack);
    if (static_cast<double>(delta) > budget) return false;
  }
  return true;
}

}  // namespace cfs
