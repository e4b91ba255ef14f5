// IP-ID sample series and the per-series checks MIDAR's estimation stage
// runs on them (alias/midar.cpp collects the series).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfs {

struct IpIdSample {
  double t_s = 0.0;
  std::uint16_t ipid = 0;
};

using IpIdSeries = std::vector<IpIdSample>;

// Counter velocity in IDs/second estimated from a sample series, handling
// 16-bit wraparound; negative when the series is too short or constant.
double estimate_velocity(const IpIdSample* samples, std::size_t n);

// True when the series is constant (zero / unchanging IP-ID source).
bool is_constant(const IpIdSample* samples, std::size_t n);

}  // namespace cfs
