// Monotonic Bounds Test (MIDAR's pairwise alias check).
//
// Two interfaces share a router's IP-ID counter iff the time-merged sample
// sequence is itself a plausible trajectory of one monotonically increasing
// counter: every consecutive modular delta must stay within what the
// (shared) velocity could have produced in that gap, and the per-interface
// velocities must agree to begin with.
#pragma once

#include <algorithm>

#include "alias/prober.h"

namespace cfs {

// Estimated velocities above this (IDs/second) mark a randomised source.
inline constexpr double kRandomVelocityCutoff = 50000.0;
// Per-gap budget of the full test: a consecutive merged delta may grow by
// at most max(kMinGapAllowance, v * gap * kVelocitySlack) IDs.
inline constexpr double kVelocitySlack = 2.0;
inline constexpr double kMinGapAllowance = 64.0;

// True when the two series could plausibly come from one shared counter.
// `merged` is caller-provided scratch with room for na + nb samples, so the
// resolver's corroboration loop allocates nothing.
bool monotonic_bounds_test(const IpIdSample* a, std::size_t na,
                           const IpIdSample* b, std::size_t nb,
                           IpIdSample* merged);

// Velocity sieve used before the full test.
bool velocities_compatible(double va, double vb);

// True when a consecutive merged delta of `delta` IDs over `gap` seconds
// exceeds the budget monotonic_bounds_test would allow at every velocity
// it can accept (all of which are <= kRandomVelocityCutoff), so any series
// containing that step fails the full test. A cheap, exact early reject:
// the expression is the full test's budget with v at its largest value,
// evaluated in the same order, and IEEE rounding is monotone, so it never
// flags a step the full test would let through. Only the full test can
// accept a pair. Inline: the resolver screens every reply with it.
inline bool delta_exceeds_any_budget(double gap, std::uint16_t delta) {
  const double budget =
      std::max(kMinGapAllowance, kRandomVelocityCutoff * gap * kVelocitySlack);
  return static_cast<double>(delta) > budget;
}

}  // namespace cfs
