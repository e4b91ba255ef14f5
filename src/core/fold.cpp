#include "core/fold.h"

#include <algorithm>

#include "core/proximity.h"

namespace cfs {

std::uint32_t ConstraintFold::intern(Ipv4 addr) {
  const std::uint32_t h = addrs.intern(addr);
  ifaces.ensure_rows(addrs.size());
  return h;
}

ConstraintFold::Absorbed ConstraintFold::absorb(const PeeringObservation& obs) {
  Absorbed result;
  const ObsStore::FindOrCreate fc =
      store.find_or_create(obs.near_addr, obs.far_addr);
  result.slot = fc.slot;
  if (fc.created) {
    store.value(fc.slot) = obs;
    result.created = true;
  } else {
    PeeringObservation& cur = store.value(fc.slot);
    const PeeringObservation before = cur;
    cur.near_rtt_ms = std::min(cur.near_rtt_ms, obs.near_rtt_ms);
    cur.far_rtt_ms = std::min(cur.far_rtt_ms, obs.far_rtt_ms);
    result.changed = !(before == cur);
  }

  result.near = intern(obs.near_addr);
  ifaces.touch(result.near, obs.near_addr, obs.near_as);
  ifaces.note_seen_from(result.near, obs.vp);
  result.far = intern(obs.far_addr);
  ifaces.touch(result.far, obs.far_addr, obs.far_as);
  return result;
}

std::size_t ConstraintFold::step2_pass(const Topology& topo,
                                       const FacilityDatabase& db,
                                       const RemotePeeringDetector& detector,
                                       int iteration) {
  std::size_t constrained = 0;
  for (const std::uint32_t slot : store.order()) {
    if (!store.live(slot)) continue;
    const PeeringObservation& obs = store.value(slot);
    apply_step2(plan_step2(topo, db, detector, obs), obs, iteration,
                [](std::uint32_t) {});
    ++constrained;
  }
  return constrained;
}

std::size_t ConstraintFold::alias_pass(const AliasSets& aliases,
                                       int iteration) {
  std::size_t processed = 0;
  for (const auto& set : aliases.sets) {
    if (set.size() < 2) continue;
    intersect_alias_set(set, iteration, [](std::uint32_t) {});
    ++processed;
  }
  return processed;
}

CfsReport ConstraintFold::build_report(const FacilityDatabase& db,
                                       const RemotePeeringDetector& detector) {
  CfsReport report;
  report.interfaces.reserve(ifaces.present_count());
  for (std::uint32_t h = 0; h < static_cast<std::uint32_t>(ifaces.rows()); ++h)
    if (ifaces.present(h))
      report.interfaces.emplace(ifaces.addr(h), ifaces.materialize(h));

  ProximityHeuristic proximity;
  report.links.reserve(store.live_count());
  for (const std::uint32_t slot : store.order()) {
    if (!store.live(slot)) continue;
    const PeeringObservation& obs = store.value(slot);
    LinkInference link;
    link.obs = obs;
    const auto* near = report.find(obs.near_addr);
    const auto* far = report.find(obs.far_addr);
    if (near != nullptr && near->resolved())
      link.near_facility = near->facility();
    if (far != nullptr && far->resolved()) link.far_facility = far->facility();

    const LinkTypeDecision decision = classify_link_type(
        db, detector, obs, near != nullptr && near->remote_suspect);
    link.type = decision.type;
    if (obs.kind == PeeringKind::Public && link.near_facility &&
        link.far_facility && !decision.far_remote)
      proximity.observe(obs.ixp, *link.near_facility, *link.far_facility);
    report.links.push_back(std::move(link));
  }

  // Switch-proximity fallback for far ends still ambiguous (Section 4.4).
  for (LinkInference& link : report.links) {
    if (link.obs.kind != PeeringKind::Public) continue;
    if (link.far_facility || !link.near_facility) continue;
    const auto* far = report.find(link.obs.far_addr);
    if (far == nullptr || !far->has_constraint) continue;
    const auto inferred = proximity.infer_far(
        link.obs.ixp, *link.near_facility, far->candidates);
    if (inferred) {
      link.far_facility = inferred;
      link.far_by_proximity = true;
    }
  }
  return report;
}

}  // namespace cfs
