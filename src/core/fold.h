// The order-sensitive CFS fold, shared by both engines: the dense state
// classified observations are merged into, Step 2 (constrain each peering
// interface to the facilities its observations allow), Step 3 (intersect
// candidate sets across alias sets) and the final report (materialise
// rows, type links, switch-proximity fallback) — paper Section 4.
//
// Both engines feed it from the per-trace Step-1 cache (core/trace_cache.h),
// replayed in trace order. The batch engine (core/cfs.cpp) layers its
// dirty/pending worklists and follow-up probing on the per-observation
// and per-alias-set primitives; its full engine
// (`incremental = false`) runs the full passes. The stream engine
// (stream/engine.cpp) builds one fresh fold per epoch, absorbs the cached
// observations, runs one Step-2 pass and one alias pass, and builds the
// report.
//
// Layout (docs/ALGORITHM.md "Memory layout"): every observation endpoint
// is interned into a dense u32 handle; interface rows live in an SoA table
// with arena-backed candidate spans (core/iface_table.h), observations in
// a slot-stable, key-ordered store (core/obs_store.h). Full passes walk the
// store in ascending (near, far) key order and the alias sets in set
// order, so results do not depend on how observations arrived.
#pragma once

#include <cstdint>
#include <vector>

#include "alias/midar.h"
#include "core/iface_table.h"
#include "core/obs_store.h"
#include "core/remote.h"
#include "core/report.h"
#include "core/rules.h"
#include "data/facility_db.h"
#include "util/intern.h"
#include "util/setops.h"

namespace cfs {

class ConstraintFold {
 public:
  Interner<Ipv4> addrs;  // row handles of `ifaces` are these handles
  IfaceTable ifaces;     // present(h) == "is a peering interface"
  ObsStore store;

  struct Absorbed {
    bool created = false;  // the slot was minted or revived
    bool changed = false;  // an existing value's RTTs dropped
    std::uint32_t slot = 0;
    std::uint32_t near = 0;  // addr handles of the endpoints
    std::uint32_t far = 0;
  };
  // Merges one classified observation: the first observation of a
  // (near, far) pair wins its fields, RTTs take the per-pair minimum.
  // Both endpoint rows are touched (the last classification wins their
  // addr/asn) and the observation's vantage point is noted on the near row.
  Absorbed absorb(const PeeringObservation& obs);

  // Step 2 for one observation, applying its plan_step2 plan (core/rules.h)
  // in order: remote-suspect mark, candidate narrowing, queried-IXP note.
  // `on_change(h)` runs for each row whose candidate set changed.
  template <typename OnChange>
  void apply_step2(const Step2Plan& plan, const PeeringObservation& obs,
                   int iteration, OnChange&& on_change) {
    const std::uint32_t near = *addrs.find(obs.near_addr);
    const std::uint32_t far = *addrs.find(obs.far_addr);
    for (int i = 0; i < plan.n_acts; ++i) {
      const Step2Plan::Action& act = plan.acts[i];
      const std::uint32_t h = act.side == Step2Plan::Side::Near ? near : far;
      if (act.mark_remote) ifaces.mark_remote(h);
      if (act.allowed != nullptr &&
          ifaces.constrain(h, act.allowed, act.n, iteration))
        on_change(h);
      if (act.record_ixp) ifaces.add_queried_ixp(h, obs.ixp);
    }
  }

  // Step 3 for one alias set: intersects the candidate sets of its
  // constrained members and, when that leaves any facility, narrows every
  // present member to the intersection. `on_change(h)` runs for each row
  // whose candidate set changed.
  template <typename OnChange>
  void intersect_alias_set(const std::vector<Ipv4>& set, int iteration,
                           OnChange&& on_change) {
    common_.clear();
    bool first = true;
    bool any = false;
    for (const Ipv4 addr : set) {
      const auto h = addrs.find(addr);
      if (!h || !ifaces.present(*h) || !ifaces.has_constraint(*h)) continue;
      any = true;
      const FacilityId* data = ifaces.cand_data(*h);
      const std::uint32_t n = ifaces.cand_size(*h);
      if (first) {
        common_.assign(data, data + n);
        first = false;
      } else {
        common_.resize(
            intersect_in_place(common_.data(), common_.size(), data, n));
      }
    }
    if (!any || common_.empty()) return;
    for (const Ipv4 addr : set) {
      const auto h = addrs.find(addr);
      if (!h || !ifaces.present(*h)) continue;
      if (ifaces.constrain(*h, common_.data(), common_.size(), iteration))
        on_change(*h);
    }
  }

  // Full Step-2 pass: every live observation in ascending key order.
  // Returns how many observations it constrained.
  std::size_t step2_pass(const Topology& topo, const FacilityDatabase& db,
                         const RemotePeeringDetector& detector,
                         int iteration);
  // Full Step-3 pass: every alias set of two or more members, in set
  // order. Returns how many sets it processed.
  std::size_t alias_pass(const AliasSets& aliases, int iteration);

  // The report rows: one InterfaceInference per present interface, and
  // one LinkInference per live observation in key order, typed by
  // classify_link_type (core/rules.h). Public far ends still unresolved
  // take the switch-proximity ranking learned from the resolved ones
  // (Section 4.4). Every other CfsReport field is the caller's.
  [[nodiscard]] CfsReport build_report(
      const FacilityDatabase& db, const RemotePeeringDetector& detector);

 private:
  // Interns `addr` and grows the interface table to cover its handle.
  std::uint32_t intern(Ipv4 addr);

  std::vector<FacilityId> common_;  // alias-intersection scratch
};

}  // namespace cfs
