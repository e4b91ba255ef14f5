// Monotonic Bounds Test (MIDAR's pairwise alias check).
//
// Two interfaces share a router's IP-ID counter iff the time-merged sample
// sequence is itself a plausible trajectory of one monotonically increasing
// counter: every consecutive modular delta must stay within what the
// (shared) velocity could have produced in that gap, and the per-interface
// velocities must agree to begin with.
#pragma once

#include "alias/prober.h"

namespace cfs {

// Estimated velocities above this (IDs/second) mark a randomised source.
inline constexpr double kRandomVelocityCutoff = 50000.0;

// True when the two series could plausibly come from one shared counter.
// `merged` is caller-provided scratch with room for na + nb samples, so the
// resolver's corroboration loop (tens of millions of calls at paper scale)
// allocates nothing.
bool monotonic_bounds_test(const IpIdSample* a, std::size_t na,
                           const IpIdSample* b, std::size_t nb,
                           IpIdSample* merged);

// Velocity sieve used before the full test.
bool velocities_compatible(double va, double vb);

}  // namespace cfs
