// Constrained Facility Search — the paper's core algorithm (Section 4).
//
// Given an initial traceroute corpus, CFS iterates:
//   Step 1  classify peering crossings (public via IXP LAN / private);
//   Step 2  constrain each peering interface to the facilities consistent
//           with the AS-to-facility and IXP-to-facility databases,
//           separating local, remote and data-less cases;
//   Step 3  propagate constraints across alias sets (interfaces of one
//           router must share its facility);
//   Step 4  plan targeted follow-up traceroutes chosen to add the most
//           constraining facility overlaps, plus reverse-direction probes
//           from vantage points inside far-side ASes (planned off the fold,
//           core/reverse.h), as one ordered (vp, target) list that a
//           single loop then probes;
// until every interface converges to a single facility or the iteration
// budget (100 in the paper) is exhausted. A final pass classifies each
// crossing's engineering (cross-connect, tethering, public local/remote,
// remote private) and applies the switch-proximity heuristic to far ends
// that the reverse search could not pin down.
//
// The default engine is incremental. Step 1 runs through the per-trace
// observation cache shared with the stream engine (core/trace_cache.h): an
// alias refresh re-classifies only traces that traverse an address whose
// mapping the refresh corrected, and replays every other trace from cache.
// Constraint passes walk a dirty set of observations whose endpoint
// candidate sets changed instead of the whole store. Because
// IfaceTable::constrain only ever intersects, re-applying an observation
// whose inputs did not change is a no-op — both engines produce identical
// reports (tests/core/incremental_test.cpp asserts it). Per-stage
// accounting lands in CfsReport::metrics.
//
// Steps 2-3 and the final report run in the fold shared with the stream
// engine (core/fold.h): addresses interned into dense u32 handles, a flat
// SoA interface table with arena-backed candidate spans
// (core/iface_table.h) and a slot-stable key-ordered observation store
// (core/obs_store.h) — docs/ALGORITHM.md "Memory layout". This engine adds
// the dirty/pending worklists as bitsets over slots and walks them
// serially in ascending key order, planning and applying each
// observation's Step 2 in turn. Only Step 1 classification fans across
// the pool, into index-ordered slots, so reports are byte-identical at
// any --threads N. Strings survive only at the ingest and export
// boundaries.
//
// CFS deliberately sees only the public-information layers: the merged
// facility database, the IP-to-ASN service, DNS-free traceroute output and
// its own alias resolution. The ground-truth Topology is used solely for
// public facts (facility -> metro, prefix origins for target selection).
#pragma once

#include <cstdint>
#include <utility>

#include "core/classify.h"
#include "core/metrics.h"
#include "core/proximity.h"
#include "core/remote.h"
#include "core/report.h"
#include "data/corpus/trace_store.h"
#include "data/facility_db.h"
#include "traceroute/campaign.h"
#include "traceroute/platforms.h"
#include "util/thread_pool.h"

namespace cfs {

struct CfsConfig {
  int max_iterations = 100;
  // Follow-up budget per iteration: how many unresolved interfaces are
  // chased (the per-interface target and vantage-point counts are fixed
  // in cfs.cpp).
  int followup_interfaces = 48;
  RemoteDetectorConfig remote;
  // Ablation switches (DESIGN.md Section 4).
  bool use_alias_constraints = true;
  bool use_border_mapping = true;  // MAP-IT-style /30 ownership repair
  // Incremental engine (default): alias refreshes re-classify only traces
  // touching a corrected address, constraint passes only observations whose
  // endpoints changed. `false` re-runs every pass from scratch; both paths
  // produce identical reports.
  bool incremental = true;
  // Restrict follow-up probing to one platform (Figure 7's per-platform
  // convergence curves); initial traces are restricted by the caller.
  std::optional<Platform> platform_filter;
  std::uint64_t seed = 99;
};

class ConstrainedFacilitySearch {
 public:
  // `pool` (optional) fans per-trace classification across workers; the
  // constraint loop itself stays serial so convergence order is unchanged.
  // CfsMetrics::threads records its size.
  ConstrainedFacilitySearch(const Topology& topo, const FacilityDatabase& db,
                            const IpToAsnService& ip2asn,
                            MeasurementCampaign& campaign,
                            const VantagePointSet& vps,
                            const CfsConfig& config = {},
                            ThreadPool* pool = nullptr);

  // Runs the full algorithm over (and beyond) the given traces.
  [[nodiscard]] CfsReport run(std::vector<TraceResult> traces);
  // Out-of-core variant: the corpus may live in an mmap'd column store
  // (docs/SCALE.md). The engine scans it in global sequence order —
  // identical to the in-memory fold — and releases resident pages behind
  // each pass, so peak RSS tracks the follow-up tail and the dense
  // per-interface state, not the corpus. Reports are byte-identical to
  // the in-memory engine over the same traces.
  [[nodiscard]] CfsReport run(corpus::TraceStore traces);

 private:
  struct State;

  // Classifies the traces appended to the cache (plus `fresh`) and folds
  // them into the observation store. Returns how many observations the
  // classifier produced.
  std::size_t ingest_traces(State& state, std::vector<TraceResult> fresh,
                            IterationMetrics* im) const;
  void refresh_aliases(State& state, IterationMetrics& im) const;
  // Refresh tail: re-classify the traces hit by asn-map corrections (every
  // trace in the full engine), rebuild the store by replaying the cache in
  // trace order and, incrementally, diff it into the dirty worklist.
  void reclassify_and_replay(State& state, IterationMetrics& im) const;
  // Records that the interface row's candidate set changed and queues its
  // observations for re-processing. `current` is the facility-pass cursor
  // key: keys after it re-enter the in-flight pass (matching the full
  // engine's in-pass cascades), keys at or before it wait for the next
  // iteration.
  void note_candidates_changed(State& state, std::uint32_t iface,
                               const std::uint64_t* current) const;
  // Steps 2 and 3. The full engine runs the shared fold's full passes
  // (core/fold.h); the incremental engine walks its worklists through the
  // same per-observation and per-alias-set primitives.
  void apply_facility_constraints(State& state, int iteration,
                                  IterationMetrics& im) const;
  void apply_alias_constraints(State& state, int iteration,
                               IterationMetrics& im) const;
  // Step 4 plan: the targeted follow-ups (selection, which draws
  // `state.rng`) then the reverse probes, as one ordered probe list. run()
  // probes the list in one campaign call (speculated on the pool, replayed
  // in order) and ingests the traces under the classify timer.
  [[nodiscard]] std::vector<ProbeUnit> plan_followups(
      State& state, int iteration, IterationMetrics& im) const;

  const Topology& topo_;
  const FacilityDatabase& db_;
  const IpToAsnService& ip2asn_;
  MeasurementCampaign& campaign_;
  const VantagePointSet& vps_;
  CfsConfig config_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace cfs
