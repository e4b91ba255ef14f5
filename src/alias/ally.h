// Ally-style pairwise alias test (Spring et al., Rocketfuel) — the
// classical technique MIDAR was designed to replace, kept here as a
// comparison baseline.
//
// Ally probes two candidate addresses back-to-back and accepts them as
// aliases when the returned IP-IDs are in sequence within a small window
// (x1 <= y <= x2 with x2 - x1 small). It needs no velocity estimation and
// far fewer probes than MIDAR, but its acceptance window makes false
// positives possible on busy counters — exactly the trade-off the
// comparison benchmark quantifies.
#pragma once

#include "alias/ipid.h"

namespace cfs {

enum class AllyVerdict { Alias, NotAlias, Unresponsive };
std::string_view ally_verdict_name(AllyVerdict verdict);

class AllyResolver {
 public:
  AllyResolver(const Topology& topo, std::uint64_t seed);

  // Pairwise test over repeated a, b, a probe trials (constants in
  // ally.cpp): Alias only when every trial is in sequence within the
  // window; Unresponsive when either side never answers.
  [[nodiscard]] AllyVerdict test_pair(Ipv4 a, Ipv4 b);

  [[nodiscard]] std::size_t probes_sent() const { return probes_; }

 private:
  IpIdModel model_;
  std::size_t probes_ = 0;
  double clock_s_ = 0.0;
};

}  // namespace cfs
