#include "alias/ipid.h"

namespace cfs {

IpIdModel::IpIdModel(const Topology& topo, std::uint64_t seed)
    : topo_(topo), random_seed_(mix64(seed ^ 0x1b1b1b1bULL)) {
  Rng rng(seed);
  for (const auto& router : topo.routers()) {
    CounterState state;
    state.offset = static_cast<double>(rng.uniform(65536));
    // Counter velocity tracks the router's traffic level; MIDAR works on
    // anything that wraps slower than the probing cadence samples.
    state.rate = rng.uniform_real(50.0, 4000.0);
    counters_.emplace(router.id.value, state);
  }
}

IpIdModel::CompiledTarget IpIdModel::compile(Ipv4 addr) const {
  CompiledTarget target;  // default: Unresponsive (unknown address)
  const Interface* iface = topo_.find_interface(addr);
  if (iface == nullptr) return target;
  const Router& router = topo_.router(iface->router);
  target.behaviour = router.ipid;
  if (router.ipid == IpIdBehaviour::Random)
    target.random_key = mix64(random_seed_ ^ addr.value());
  if (router.ipid == IpIdBehaviour::SharedCounter) {
    const CounterState& state = counters_.at(router.id.value);
    target.offset = state.offset;
    target.rate = state.rate;
  }
  return target;
}

double IpIdModel::velocity(RouterId router) const {
  const auto it = counters_.find(router.value);
  return it == counters_.end() ? 0.0 : it->second.rate;
}

}  // namespace cfs
