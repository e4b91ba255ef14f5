// Traceroute measurement simulation.
//
// Executes an ICMP Paris-style traceroute along the ForwardingEngine path:
// per-hop RTT = 2x cumulative one-way latency + last-mile access delay +
// processing jitter; routers that filter ICMP show up as missing hops; the
// destination answers if probing reaches it. Paris flow pinning means the
// path itself is deterministic — artifacts come from loss, filtering and
// (under a FaultPlane) timeouts, the ones the paper's pipeline must survive.
// There is one trace function, trace_seeded(): every draw comes from
// streams split off a caller-chosen id, so a trace is a pure function of
// (engine seed, stream) and the campaign can compute it on any thread.
#pragma once

#include <vector>

#include "net/faults.h"
#include "traceroute/forwarding.h"
#include "traceroute/platforms.h"
#include "util/rng.h"

namespace cfs {

struct Hop {
  Ipv4 address;          // meaningful only when responded
  double rtt_ms = 0.0;
  bool responded = false;
  // No reply within the timer, as opposed to a dropped probe: the fault
  // plane's injected timeouts land here, never on `responded` loss.
  bool timed_out = false;
};

struct TraceResult {
  VantagePointId vp;
  Ipv4 target;
  std::vector<Hop> hops;
  bool reached_target = false;
  std::size_t hops_timed_out = 0;  // hops silenced by timeout, not loss
};

struct EngineConfig {
  double jitter_ms = 0.25;        // std-dev of per-reply queueing noise
  double processing_ms = 0.08;    // ICMP generation cost per hop
  double probe_loss = 0.01;       // independent per-hop probe loss
  int max_ttl = 40;
};

class TracerouteEngine {
 public:
  // `faults` (optional) injects per-probe timeouts from per-trace streams,
  // so a null or zero-intensity plane leaves traces identical.
  TracerouteEngine(const Topology& topo, const ForwardingEngine& forwarding,
                   const EngineConfig& config, std::uint64_t seed,
                   FaultPlane* faults = nullptr);

  // One traceroute from the vantage point to the target address. All noise
  // (loss, jitter, injected timeouts) comes from streams split off
  // `stream`, never from shared state, so equal (engine seed, stream)
  // yields an identical TraceResult on any thread at any time. This is what
  // makes campaign parallelism deterministic: the result is a function of
  // the stream id, not of execution order.
  TraceResult trace_seeded(const VantagePoint& vp, Ipv4 target,
                           std::uint64_t stream) const;

 private:
  // `noise` supplies loss/jitter draws; `timeout_rng` supplies
  // injected-timeout draws, null meaning no injected timeouts.
  TraceResult trace_impl(const VantagePoint& vp, Ipv4 target, Rng& noise,
                         Rng* timeout_rng) const;

  const Topology& topo_;
  const ForwardingEngine& forwarding_;
  EngineConfig config_;
  std::uint64_t seed_;
  FaultPlane* faults_ = nullptr;
};

}  // namespace cfs
