#include "traceroute/engine.h"

#include <algorithm>

namespace cfs {

TracerouteEngine::TracerouteEngine(const Topology& topo,
                                   const ForwardingEngine& forwarding,
                                   const EngineConfig& config,
                                   std::uint64_t seed, FaultPlane* faults)
    : topo_(topo),
      forwarding_(forwarding),
      config_(config),
      seed_(seed),
      faults_(faults) {}

TraceResult TracerouteEngine::trace_seeded(const VantagePoint& vp, Ipv4 target,
                                           std::uint64_t stream) const {
  Rng noise = Rng(seed_).fork(stream);
  if (faults_ != nullptr && faults_->plan().probe_timeout_rate > 0.0) {
    Rng timeouts = faults_->timeout_stream(stream);
    return trace_impl(vp, target, noise, &timeouts);
  }
  return trace_impl(vp, target, noise, nullptr);
}

TraceResult TracerouteEngine::trace_impl(const VantagePoint& vp, Ipv4 target,
                                         Rng& noise, Rng* timeout_rng) const {
  traces_.fetch_add(1, std::memory_order_relaxed);
  // Injected-timeout draw; only trace_seeded() hands out a timeout stream,
  // and only when the plane's timeout rate is positive.
  const auto times_out = [&]() {
    return timeout_rng != nullptr && faults_->probe_times_out(*timeout_rng);
  };

  TraceResult result;
  result.vp = vp.id;
  result.target = target;

  const auto path = forwarding_.route(vp.attach, target);
  if (path.empty()) return result;

  int ttl = 0;
  for (const RouterHop& hop : path) {
    if (++ttl > config_.max_ttl) return result;
    const Router& router = topo_.router(hop.router);
    Hop out;
    const bool lost = noise.chance(config_.probe_loss);
    if (router.responds_to_traceroute && !lost) {
      // The reply would have arrived; an injected timeout silences it in a
      // way the pipeline can tell apart from loss.
      if (times_out()) {
        out.timed_out = true;
        ++result.hops_timed_out;
      } else {
        out.responded = true;
        out.address = hop.ingress;
        out.rtt_ms = 2.0 * (vp.access_ms + hop.cumulative_ms) +
                     config_.processing_ms +
                     std::max(0.0, noise.normal(0.0, config_.jitter_ms));
      }
    }
    result.hops.push_back(out);
  }

  // Destination host reply. When the target is a router interface the final
  // router hop already answered with the right address; otherwise the end
  // host itself responds one hop further.
  const Interface* iface = topo_.find_interface(target);
  if (iface == nullptr || iface->role == InterfaceRole::Host) {
    if (++ttl <= config_.max_ttl && !noise.chance(config_.probe_loss)) {
      if (times_out()) {
        Hop out;
        out.timed_out = true;
        result.hops.push_back(out);
        ++result.hops_timed_out;
      } else {
        Hop out;
        out.responded = true;
        out.address = target;
        out.rtt_ms = 2.0 * (vp.access_ms + path.back().cumulative_ms + 0.1) +
                     config_.processing_ms +
                     std::max(0.0, noise.normal(0.0, config_.jitter_ms));
        result.hops.push_back(out);
        result.reached_target = true;
      }
    }
  } else {
    // Rewrite the final hop to the probed interface address: the
    // destination answers an ICMP echo from the probed address itself.
    // The echo is its own probe, so it gets its own timeout draw.
    if (!result.hops.empty()) {
      Hop& back = result.hops.back();
      if (times_out()) {
        if (!back.timed_out) ++result.hops_timed_out;
        back.timed_out = true;
        back.responded = false;
      } else {
        if (back.timed_out) --result.hops_timed_out;
        back.timed_out = false;
        back.address = target;
        back.responded = true;
        if (back.rtt_ms == 0.0)
          back.rtt_ms = 2.0 * (vp.access_ms + path.back().cumulative_ms) +
                        config_.processing_ms;
        result.reached_target = true;
      }
    }
  }
  return result;
}

}  // namespace cfs
