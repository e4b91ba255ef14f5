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

#include <bit>
#include <cmath>
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
  // stage answers millions of probes at paper scale). An unknown address
  // compiles to Unresponsive.
  struct CompiledTarget {
    IpIdBehaviour behaviour = IpIdBehaviour::Unresponsive;
    double offset = 0.0;
    double rate = 0.0;
    std::uint64_t random_key = 0;  // Random: hash of (seed, address)
  };
  [[nodiscard]] CompiledTarget compile(Ipv4 addr) const;

  // IP-ID contained in a reply to a probe of the compiled target sent at
  // virtual time `t_s` (seconds); nullopt when the interface is unknown or
  // its router filters alias-resolution probes. A pure function of
  // (target, t_s): a Random-behaviour reply is a hash of the seed, the
  // address and the probe time, so no reply depends on earlier probes.
  [[nodiscard]] static std::optional<std::uint16_t> probe_compiled(
      const CompiledTarget& target, double t_s) {
    switch (target.behaviour) {
      case IpIdBehaviour::Unresponsive:
        return std::nullopt;
      case IpIdBehaviour::Zero:
        return std::uint16_t{0};
      case IpIdBehaviour::Random:
        return static_cast<std::uint16_t>(
            mix64(target.random_key ^ std::bit_cast<std::uint64_t>(t_s)));
      case IpIdBehaviour::SharedCounter: {
        const double value = target.offset + target.rate * t_s;
        return static_cast<std::uint16_t>(
            static_cast<std::uint64_t>(std::floor(value)) % 65536);
      }
    }
    return std::nullopt;
  }

  // One-off probe of `addr`: compile plus probe_compiled.
  [[nodiscard]] std::optional<std::uint16_t> probe(Ipv4 addr,
                                                   double t_s) const {
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
  std::uint64_t random_seed_;  // keys Random-behaviour replies
};

}  // namespace cfs
