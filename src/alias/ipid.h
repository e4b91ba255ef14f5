// IP-ID source model.
//
// Classic routers generate the IPv4 identification field from one shared,
// monotonically increasing 16-bit counter across all interfaces; MIDAR
// (Keys et al., ToN 2013) exploits this to group interfaces into routers
// via the monotonic bounds test. We model each router's counter as
// value(t) = (offset + rate * t) mod 2^16, with per-router behaviour drawn
// at generation time: shared counter (resolvable), randomised IP-ID,
// constant zero, or probe-filtering (all three produce false negatives,
// never false positives -- matching MIDAR's design goal).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "topology/topology.h"
#include "util/rng.h"

namespace cfs {

class IpIdModel {
 public:
  IpIdModel(const Topology& topo, std::uint64_t seed);

  // Pre-resolved probe target: the interface/router/counter hash lookups
  // hoisted out of the per-probe path (the resolver's pair-corroboration
  // stage answers tens of millions of probes at paper scale). An unknown
  // address compiles to Unresponsive. Compiling draws no RNG.
  struct CompiledTarget {
    IpIdBehaviour behaviour = IpIdBehaviour::Unresponsive;
    double offset = 0.0;
    double rate = 0.0;
  };
  [[nodiscard]] CompiledTarget compile(Ipv4 addr) const;

  // IP-ID contained in a reply to a probe of the compiled target sent at
  // virtual time `t_s` (seconds); nullopt when the interface is unknown or
  // its router filters alias-resolution probes. Each probe of a
  // Random-behaviour router draws once from probe_rng_.
  [[nodiscard]] std::optional<std::uint16_t> probe_compiled(
      const CompiledTarget& target, double t_s) {
    switch (target.behaviour) {
      case IpIdBehaviour::Unresponsive:
        return std::nullopt;
      case IpIdBehaviour::Zero:
        return std::uint16_t{0};
      case IpIdBehaviour::Random:
        // Low 16 bits of one draw: what uniform(65536) returns, since a
        // power-of-two bound never rejects, without its two divisions.
        return static_cast<std::uint16_t>(probe_rng_.next() % 65536);
      case IpIdBehaviour::SharedCounter: {
        const double value = target.offset + target.rate * t_s;
        return static_cast<std::uint16_t>(
            static_cast<std::uint64_t>(std::floor(value)) % 65536);
      }
    }
    return std::nullopt;
  }

  // Advances the Random-reply stream past `n` replies that are scheduled
  // but never read, leaving it where `n` Random probes would: each reply
  // is exactly one next().
  void skip_random_replies(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) probe_rng_.next();
  }

  // One-off probe of `addr`: compile plus probe_compiled.
  [[nodiscard]] std::optional<std::uint16_t> probe(Ipv4 addr, double t_s) {
    return probe_compiled(compile(addr), t_s);
  }

  // Ground-truth counter velocity in IDs/second (test introspection).
  [[nodiscard]] double velocity(RouterId router) const;

 private:
  struct CounterState {
    double offset = 0.0;
    double rate = 0.0;  // IDs per second
  };

  const Topology& topo_;
  std::unordered_map<std::uint32_t, CounterState> counters_;  // per router
  Rng probe_rng_;  // randomised-IPID replies
};

}  // namespace cfs
