#include "core/cfs.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/bordermap.h"
#include "core/fold.h"
#include "core/reverse.h"
#include "core/rules.h"
#include "core/trace_cache.h"
#include "util/arena.h"
#include "util/intern.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/setops.h"
#include "util/trace.h"

namespace cfs {
namespace {

// Step 4 budget per chased interface: how many target ASes are probed, and
// the vantage-point count whose excess over two is drawn at random.
constexpr std::size_t kFollowupTargets = 2;
constexpr int kFollowupVps = 3;
// Alias resolution (the expensive probing stage) re-runs over newly
// observed interfaces on iteration 1 and every this many iterations.
constexpr int kAliasRefreshInterval = 10;

}  // namespace

struct ConstrainedFacilitySearch::State {
  State(const IpToAsnService& ip2asn, const Topology& topo,
        std::uint64_t seed, corpus::TraceStore rows, ThreadPool* pool)
      : cache(std::move(rows), pool), asn_map(ip2asn), resolver(topo, seed),
        border(ip2asn), rng(seed ^ 0x5eedULL) {}

  // The trace corpus (in-memory, or an mmap'd column store plus the
  // follow-up tail — docs/SCALE.md) with each trace's classification under
  // `asn_map` (core/trace_cache.h).
  TraceCache cache;

  // ---- dense-handle hot state ----
  // The shared fold (core/fold.h) owns the address interner, interface
  // rows and observation store; the columns below are indexed by its
  // address handles or observation slots.
  ConstraintFold fold;
  // Worklist bits by observation slot: `dirty` is this iteration's pass,
  // `pending` collects mid-pass discoveries at-or-before the cursor
  // (promoted into `dirty` at iteration end, like the old std::set pair).
  DynamicBitset dirty;
  DynamicBitset pending;
  std::vector<std::vector<std::uint32_t>> obs_by_iface;  // handle -> slots
  // Change clock: bumped whenever a candidate set changes; alias sets
  // remember the tick they were last intersected at. Handle-indexed with 0
  // meaning "never changed".
  std::vector<std::uint64_t> iface_changed;
  std::uint64_t tick = 0;

  std::size_t aliased_addr_count = 0;  // addresses covered by last run
  InterfaceAsnMap asn_map;
  AliasSets aliases;
  AliasResolver resolver;
  // Border-mapping evidence accumulates per trace, so the incremental
  // engine keeps one mapper fed with each trace exactly once; the full
  // engine rebuilds a fresh one per refresh (identical corrections).
  BorderMapper border;
  std::size_t border_upto = 0;
  Rng rng;
  std::vector<std::size_t> history;
  // Facility -> ASes present (per the public database), for follow-ups.
  std::unordered_map<std::uint32_t, std::vector<Asn>> present_at;
  // Hosting AS -> vantage points inside it (LG-in-backbone follow-ups and
  // reverse probes).
  VpsByAs vps_by_as;
  // Observed AS adjacency (from classified crossings) as sorted-unique
  // neighbour columns keyed by a dense AS handle.
  Interner<Asn> as_ids;
  std::vector<std::vector<std::uint32_t>> neighbors;  // handle -> asn values
  // Vantage points usable for follow-ups (after any platform filter).
  std::vector<const VantagePoint*> usable_vps;

  std::vector<std::uint64_t> alias_set_ticks;  // incremental engine

  CfsMetrics metrics;

  // Grows the side columns to every handle and slot the fold has minted.
  void grow_columns() {
    if (fold.addrs.size() > obs_by_iface.size()) {
      obs_by_iface.resize(fold.addrs.size());
      iface_changed.resize(fold.addrs.size(), 0);
    }
    if (fold.store.slots() > dirty.size()) {
      dirty.resize(fold.store.slots());
      pending.resize(fold.store.slots());
    }
  }

  void add_neighbor(Asn a, Asn b) {
    const std::uint32_t h = as_ids.intern(a);
    if (as_ids.size() > neighbors.size()) neighbors.resize(as_ids.size());
    auto& v = neighbors[h];
    const auto it = std::lower_bound(v.begin(), v.end(), b.value);
    if (it == v.end() || *it != b.value) v.insert(it, b.value);
  }

  [[nodiscard]] bool as_neighbors(Asn a, Asn b) const {
    const auto h = as_ids.find(a);
    if (!h) return false;
    const auto& v = neighbors[*h];
    return std::binary_search(v.begin(), v.end(), b.value);
  }

  // Folds one classified observation into the shared fold plus the
  // batch-only side state (AS adjacency for follow-up scoring). The full
  // and incremental paths and the refresh replay all funnel through here
  // so the merged state is identical whichever path produced it.
  ConstraintFold::Absorbed absorb(const PeeringObservation& obs) {
    const ConstraintFold::Absorbed result = fold.absorb(obs);
    grow_columns();
    add_neighbor(obs.near_as, obs.far_as);
    add_neighbor(obs.far_as, obs.near_as);
    return result;
  }
};

ConstrainedFacilitySearch::ConstrainedFacilitySearch(
    const Topology& topo, const FacilityDatabase& db,
    const IpToAsnService& ip2asn, MeasurementCampaign& campaign,
    const VantagePointSet& vps, const CfsConfig& config, ThreadPool* pool)
    : topo_(topo),
      db_(db),
      ip2asn_(ip2asn),
      campaign_(campaign),
      vps_(vps),
      config_(config),
      pool_(pool) {}

std::size_t ConstrainedFacilitySearch::ingest_traces(
    State& state, std::vector<TraceResult> fresh, IterationMetrics* im) const {
  for (auto& trace : fresh) state.cache.append(std::move(trace));
  // Classification fans across the pool into index-ordered slots; the fold
  // below is serial in trace order.
  const std::size_t first =
      state.cache.classify_new(HopClassifier(ip2asn_, state.asn_map));
  const auto& cached = state.cache.observations();
  std::size_t classified = 0;
  for (std::size_t i = first; i < cached.size(); ++i) {
    classified += cached[i].size();
    for (const PeeringObservation& obs : cached[i]) {
      const ConstraintFold::Absorbed r = state.absorb(obs);
      if (!config_.incremental) continue;
      if (r.created) {
        state.obs_by_iface[r.near].push_back(r.slot);
        state.obs_by_iface[r.far].push_back(r.slot);
      }
      if (r.created || r.changed) state.dirty.set(r.slot);
    }
  }
  if (im != nullptr) im->classified_observations += classified;
  return classified;
}

void ConstrainedFacilitySearch::reclassify_and_replay(
    State& state, IterationMetrics& im) const {
  // Corrections only ever *add* corrected entries, so the set of changed
  // addresses is exactly what apply_* recorded since the last refresh.
  const HopClassifier classifier(ip2asn_, state.asn_map);
  const std::vector<Ipv4> changed = state.asn_map.take_changed();
  const std::vector<std::uint32_t> stale =
      config_.incremental ? state.cache.reclassify(classifier, changed)
                          : state.cache.reclassify_all(classifier);
  const auto& cached = state.cache.observations();
  std::size_t fresh_obs = 0;
  for (const std::uint32_t row : stale) fresh_obs += cached[row].size();

  // Rebuild the merged store by replaying the caches in trace order — the
  // exact sequence a full re-ingest would feed absorb — and diff against
  // the previous values to seed the dirty worklist. Slots are stable, so
  // the pre-replay values stay addressable for the comparison.
  ObsStore& store = state.fold.store;
  std::vector<PeeringObservation> old_values;
  DynamicBitset old_live;
  if (config_.incremental) {
    old_values = store.values_snapshot();
    old_live = store.live_bits();
  }
  store.kill_all();
  std::size_t replayed = 0;
  for (const std::vector<PeeringObservation>& list : cached) {
    replayed += list.size();
    for (const PeeringObservation& obs : list) state.absorb(obs);
  }
  replayed -= fresh_obs;

  if (config_.incremental) {
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(store.slots()); ++slot) {
      if (!store.live(slot)) continue;
      const bool existed = slot < old_values.size() && old_live.test(slot);
      if (!existed) {
        const PeeringObservation& obs = store.value(slot);
        state.obs_by_iface[*state.fold.addrs.find(obs.near_addr)].push_back(
            slot);
        state.obs_by_iface[*state.fold.addrs.find(obs.far_addr)].push_back(
            slot);
        state.dirty.set(slot);
      } else if (!(old_values[slot] == store.value(slot))) {
        state.dirty.set(slot);
      }
    }
  }

  im.reclassified_traces += stale.size();
  im.classified_observations += fresh_obs;
  im.replayed_observations += replayed;
  state.metrics.reclassified_traces += stale.size();
  state.metrics.reclassified_observations += fresh_obs;
  state.metrics.replayed_observations += replayed;
}

void ConstrainedFacilitySearch::refresh_aliases(State& state,
                                                IterationMetrics& im) const {
  const IfaceTable& ifaces = state.fold.ifaces;
  if (ifaces.present_count() == state.aliased_addr_count) return;
  im.alias_refreshed = true;
  ++state.metrics.alias_refreshes;

  TraceSpan alias_timer("cfs.alias_refresh");
  alias_timer.arg("addresses", ifaces.present_count());
  std::vector<Ipv4> targets;
  targets.reserve(ifaces.present_count());
  for (std::uint32_t h = 0; h < static_cast<std::uint32_t>(ifaces.rows()); ++h)
    if (ifaces.present(h)) targets.push_back(ifaces.addr(h));
  std::sort(targets.begin(), targets.end());  // determinism
  state.aliases = state.resolver.resolve(targets);
  state.aliased_addr_count = ifaces.present_count();
  state.asn_map.apply_alias_correction(state.aliases);

  if (config_.use_border_mapping) {
    // Repair foreign-numbered /30 ownership from the corpus itself
    // (MAP-IT-style); catches the routers alias resolution cannot probe.
    // The incremental engine feeds its one mapper only the new traces.
    BorderMapper rebuilt(ip2asn_);
    BorderMapper& mapper = config_.incremental ? state.border : rebuilt;
    const std::size_t first = config_.incremental ? state.border_upto : 0;
    TraceSpan ingest_span("border.ingest");
    ingest_span.arg("traces", state.cache.size() - first);
    state.cache.scan(first, [&mapper](std::size_t, const TraceResult& trace) {
      mapper.ingest(trace);
    });
    ingest_span.stop();
    state.border_upto = state.cache.size();
    TraceSpan corrections_span("border.corrections");
    const auto corrections = mapper.corrections();
    corrections_span.arg("corrections", corrections.size());
    state.asn_map.apply_border_corrections(corrections);
  }
  // New alias sets: every set must be re-intersected from scratch.
  state.alias_set_ticks.assign(state.aliases.sets.size(), 0);
  alias_timer.arg("alias_sets", state.aliases.sets.size());
  im.alias_ms += alias_timer.stop();

  // Corrected mappings can turn previously discarded crossings into
  // classifiable ones: re-derive observations against the new map.
  TraceSpan reclass_timer("cfs.reclassify");
  reclassify_and_replay(state, im);
  im.reclassify_ms += reclass_timer.stop();
}

void ConstrainedFacilitySearch::note_candidates_changed(
    State& state, std::uint32_t iface, const std::uint64_t* current) const {
  state.iface_changed[iface] = ++state.tick;
  for (const std::uint32_t slot : state.obs_by_iface[iface]) {
    if (current != nullptr && state.fold.store.key(slot) > *current)
      state.dirty.set(slot);  // still ahead of the in-flight pass
    else
      state.pending.set(slot);  // next iteration, like the full engine
  }
}

void ConstrainedFacilitySearch::apply_facility_constraints(
    State& state, int iteration, IterationMetrics& im) const {
  const RemotePeeringDetector detector(config_.remote);
  if (!config_.incremental) {
    const std::size_t n =
        state.fold.step2_pass(topo_, db_, detector, iteration);
    im.dirty_observations += n;
    im.constrained_observations += n;
    return;
  }

  // Serial walk in ascending key order (the order index is key-sorted, so
  // key order == position order). Dead-slot bits stay in the count,
  // matching the old worklist whose vanished keys were counted but
  // skipped. Changes made mid-pass re-queue observations: slots whose key
  // is past the cursor have their dirty bit set and are picked up later in
  // this same walk; slots at or before the cursor land in `pending` for the
  // next iteration — exactly the full engine's behavior, which sees an
  // earlier change only on its next sweep.
  im.dirty_observations += state.dirty.count();
  for (const std::uint32_t slot : state.fold.store.order()) {
    if (!state.dirty.test(slot)) continue;
    state.dirty.reset(slot);
    if (!state.fold.store.live(slot)) continue;  // vanished at refresh
    const std::uint64_t key = state.fold.store.key(slot);
    const PeeringObservation& obs = state.fold.store.value(slot);
    state.fold.apply_step2(plan_step2(topo_, db_, detector, obs), obs,
                           iteration, [&](std::uint32_t h) {
                             note_candidates_changed(state, h, &key);
                           });
    ++im.constrained_observations;
  }
}

void ConstrainedFacilitySearch::apply_alias_constraints(
    State& state, int iteration, IterationMetrics& im) const {
  if (!config_.incremental) {
    im.alias_sets_processed +=
        state.fold.alias_pass(state.aliases, iteration);
    return;
  }
  if (state.alias_set_ticks.size() != state.aliases.sets.size())
    state.alias_set_ticks.assign(state.aliases.sets.size(), 0);

  for (std::size_t si = 0; si < state.aliases.sets.size(); ++si) {
    const auto& set = state.aliases.sets[si];
    if (set.size() < 2) continue;
    // Intersecting unchanged candidate sets reproduces the members'
    // current candidates — a no-op. Skip unless some member's candidates
    // moved since this set was last processed.
    bool dirty = false;
    for (const Ipv4 addr : set) {
      const auto h = state.fold.addrs.find(addr);
      if (h && state.iface_changed[*h] > state.alias_set_ticks[si]) {
        dirty = true;
        break;
      }
    }
    if (!dirty) continue;
    ++im.alias_sets_processed;
    state.fold.intersect_alias_set(set, iteration, [&](std::uint32_t h) {
      note_candidates_changed(state, h, nullptr);
    });
    state.alias_set_ticks[si] = state.tick;
  }
}

std::vector<ProbeUnit> ConstrainedFacilitySearch::plan_followups(
    State& state, int iteration, IterationMetrics& im) const {
  TraceSpan select_span("followup.select");
  const IfaceTable& ifaces = state.fold.ifaces;
  // Gather unresolved-but-constrained interfaces, tightest first (they are
  // one good constraint away from resolution).
  std::vector<std::uint32_t> unresolved;
  for (std::uint32_t h = 0; h < static_cast<std::uint32_t>(ifaces.rows()); ++h)
    if (ifaces.present(h) && ifaces.has_constraint(h) && !ifaces.resolved(h))
      unresolved.push_back(h);
  std::sort(unresolved.begin(), unresolved.end(),
            [&ifaces](std::uint32_t a, std::uint32_t b) {
              if (ifaces.cand_size(a) != ifaces.cand_size(b))
                return ifaces.cand_size(a) < ifaces.cand_size(b);
              return ifaces.addr(a) < ifaces.addr(b);
            });
  im.followup_pool = unresolved.size();

  std::vector<ProbeUnit> units;
  const auto& all_vps = state.usable_vps;
  int chased = 0;
  // Rotate through the unresolved pool across iterations so the same few
  // tightly-constrained-but-stuck interfaces do not starve the rest.
  const std::size_t offset =
      unresolved.empty()
          ? 0
          : (static_cast<std::size_t>(iteration - 1) *
             static_cast<std::size_t>(config_.followup_interfaces)) %
                unresolved.size();
  for (std::size_t slot = 0; slot < unresolved.size(); ++slot) {
    const std::uint32_t h = unresolved[(offset + slot) % unresolved.size()];
    if (chased >= config_.followup_interfaces) break;
    const Asn iface_asn = ifaces.asn(h);
    const FacilityId* cands = ifaces.cand_data(h);
    const std::uint32_t n_cands = ifaces.cand_size(h);

    // Candidate target ASes: present at one of the interface's candidate
    // facilities, preferring the smallest overlap (most constraining) and
    // penalising ASes colocated at IXPs already used as constraints.
    std::vector<std::pair<double, Asn>> scored;
    std::unordered_set<std::uint32_t> considered;
    for (std::uint32_t ci = 0; ci < n_cands; ++ci) {
      const auto it = state.present_at.find(cands[ci].value);
      if (it == state.present_at.end()) continue;
      for (const Asn cand : it->second) {
        if (cand == iface_asn) continue;
        if (!considered.insert(cand.value).second) continue;
        const auto& ft = db_.facilities_of(cand);
        const std::size_t overlap =
            set_intersect_count(ft.data(), ft.size(), cands,
                                static_cast<std::size_t>(n_cands));
        if (overlap == 0 || overlap >= n_cands) continue;
        double score = static_cast<double>(overlap);
        // A traceroute can only add a constraint for this AS's router if
        // it exits through it: known neighbors are far more likely to.
        if (!state.as_neighbors(iface_asn, cand)) score += 5.0;
        for (const IxpId ixp : ifaces.queried_ixps(h)) {
          if (set_intersects(ft, db_.ixp_facilities(ixp)))
            score += 10.0;  // already-queried IXP: deprioritise
        }
        scored.emplace_back(score, cand);
      }
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;
              });

    if (scored.empty()) {
      // No viable target: the slot launched nothing, so it must not burn
      // budget — charging here starved later interfaces whenever the pool
      // held data-less entries.
      ++im.followups_skipped;
      continue;
    }
    scored.resize(std::min(scored.size(), kFollowupTargets));

    // Vantage points: ones that already traversed this interface (likely to
    // cross the same router), then looking glasses *inside* the interface's
    // own AS (paper Section 5: 46% of LG-visible interfaces sit in transit
    // backbones Atlas never reaches), topped up with random picks.
    std::vector<const VantagePoint*> probes;
    for (const VantagePointId vp : ifaces.seen_from(h)) {
      if (probes.size() >= 2) break;
      probes.push_back(&vps_.vp(vp));
    }
    if (const auto it = state.vps_by_as.find(iface_asn.value);
        it != state.vps_by_as.end()) {
      for (const VantagePoint* vp : it->second) {
        if (probes.size() >= 4) break;
        probes.push_back(vp);
      }
    }
    // Always keep some random exploration in the mix; a fully deterministic
    // probe set reaches a fixed point and stops contributing constraints.
    for (int extra = 0; extra < kFollowupVps - 2; ++extra)
      if (!all_vps.empty())
        probes.push_back(all_vps[state.rng.index(all_vps.size())]);

    const std::size_t planned = units.size();
    for (const auto& [score, target_as] : scored) {
      if (!topo_.has_as(target_as)) continue;
      const auto targets = MeasurementCampaign::targets_for(topo_, target_as);
      if (targets.empty()) continue;
      for (const VantagePoint* vp : probes)
        units.push_back(ProbeUnit{vp, targets.front()});
    }
    if (units.size() == planned) {
      ++im.followups_skipped;  // every scored AS was unprobeable
      continue;
    }
    ++chased;
    ++im.followups_launched;
  }

  select_span.arg("units", units.size());
  select_span.stop();

  // Reverse-direction probes for unresolved far ends (Section 4.3).
  TraceSpan reverse_span("followup.reverse");
  const std::vector<ProbeUnit> reverse =
      plan_reverse_probes(topo_, state.fold, state.vps_by_as, /*budget=*/16);
  units.insert(units.end(), reverse.begin(), reverse.end());
  reverse_span.arg("units", reverse.size());
  return units;
}

CfsReport ConstrainedFacilitySearch::run(std::vector<TraceResult> traces) {
  return run(corpus::TraceStore(std::move(traces)));
}

CfsReport ConstrainedFacilitySearch::run(corpus::TraceStore traces) {
  TraceSpan run_timer("cfs.run");
  run_timer.arg("initial_traces", traces.size());
  State state(ip2asn_, topo_, config_.seed, std::move(traces), pool_);
  state.metrics.incremental = config_.incremental;
  state.metrics.threads = pool_ != nullptr ? pool_->workers() : 1;

  // Public-database index: facility -> ASes present (for follow-ups).
  for (const auto& as : topo_.ases())
    for (const FacilityId fac : db_.facilities_of(as.asn))
      state.present_at[fac.value].push_back(as.asn);
  for (const VantagePoint& vp : vps_.all()) {
    if (config_.platform_filter && vp.platform != *config_.platform_filter)
      continue;
    state.vps_by_as[vp.asn.value].push_back(&vp);
    state.usable_vps.push_back(&vp);
  }

  {
    TraceSpan initial_timer("cfs.initial_ingest");
    state.metrics.initial_traces = state.cache.size();
    initial_timer.arg("traces", state.cache.size());
    initial_timer.arg("spilled", state.cache.rows().spilled());
    state.metrics.initial_observations = ingest_traces(state, {}, nullptr);
    initial_timer.arg("observations", state.metrics.initial_observations);
    state.metrics.initial_classify_ms = initial_timer.stop();
  }

  int iteration = 0;
  for (iteration = 1; iteration <= config_.max_iterations; ++iteration) {
    IterationMetrics im;
    im.iteration = static_cast<std::size_t>(iteration);
    im.followup_budget =
        static_cast<std::size_t>(std::max(0, config_.followup_interfaces));
    TraceSpan iteration_span("cfs.iteration");
    iteration_span.arg("iteration", static_cast<std::uint64_t>(iteration));

    if (config_.use_alias_constraints &&
        (iteration == 1 || iteration % kAliasRefreshInterval == 0))
      refresh_aliases(state, im);

    TraceSpan constrain_timer("cfs.constrain");
    apply_facility_constraints(state, iteration, im);
    if (config_.use_alias_constraints)
      apply_alias_constraints(state, iteration, im);
    if (config_.incremental) {
      // Promote mid-pass discoveries into the next iteration's worklist.
      state.dirty.merge(state.pending);
      state.pending.reset_all();
    }
    constrain_timer.arg("dirty_observations", im.dirty_observations);
    constrain_timer.arg("constrained_observations",
                        im.constrained_observations);
    constrain_timer.arg("alias_sets", im.alias_sets_processed);
    im.constrain_ms = constrain_timer.stop();

    std::size_t resolved = 0;
    for (std::uint32_t h = 0;
         h < static_cast<std::uint32_t>(state.fold.ifaces.rows()); ++h)
      resolved += state.fold.ifaces.present(h) && state.fold.ifaces.resolved(h);
    state.history.push_back(resolved);
    im.resolved = resolved;
    im.observations = state.fold.store.live_count();
    im.interfaces = state.fold.ifaces.present_count();

    const bool done = resolved == state.fold.ifaces.present_count() &&
                      state.fold.ifaces.present_count() != 0;
    if (!done && iteration < config_.max_iterations) {
      TraceSpan followup_timer("cfs.followups");
      const std::vector<ProbeUnit> units =
          plan_followups(state, iteration, im);
      TraceSpan probe_span("followup.probe");
      probe_span.arg("units", units.size());
      const std::size_t hits_before = campaign_.speculation_hits();
      std::vector<TraceResult> fresh = campaign_.probe(units);
      std::erase_if(fresh, [](const TraceResult& trace) {
        return trace.hops.empty();
      });
      probe_span.arg("traces", fresh.size());
      probe_span.arg("hits", campaign_.speculation_hits() - hits_before);
      probe_span.stop();
      log_debug() << "iteration " << iteration << ": " << fresh.size()
                  << " follow-up traces";
      im.followup_traces = fresh.size();
      followup_timer.arg("launched", im.followups_launched);
      followup_timer.arg("traces", fresh.size());
      im.followup_ms = followup_timer.stop();
      TraceSpan classify_timer("cfs.ingest");
      ingest_traces(state, std::move(fresh), &im);
      im.classify_ms = classify_timer.stop();
    }
    iteration_span.arg("resolved", im.resolved);
    state.metrics.iterations.push_back(im);
    if (done) break;
  }

  // ---- final classification of each crossing ----
  TraceSpan link_span("cfs.link_classify");
  link_span.arg("observations", state.fold.store.live_count());
  CfsReport report = state.fold.build_report(
      db_, RemotePeeringDetector(config_.remote));
  link_span.arg("links", report.links.size());
  link_span.stop();
  report.aliases = std::move(state.aliases);
  report.resolved_per_iteration = std::move(state.history);
  report.traces_used = state.cache.size();
  report.iterations_run = std::min(iteration, config_.max_iterations);

  // Snapshot the measurement plane's attrition accounting (the campaign
  // outlives individual runs, so these are campaign-lifetime totals) and
  // what the degraded data sources withheld.
  state.metrics.faults = campaign_.fault_stats();
  state.metrics.faults.records_withheld = db_.records_withheld();
  // Memory gauges (docs/OBSERVABILITY.md): candidate-span arena payload
  // for this run, process-wide arena capacity, and the process RSS
  // high-water mark. Registry gauges live under metrics.registry in the
  // export — outside every byte-equivalence comparison — and feed the
  // memory columns of BENCH_parallel.json.
  Trace::gauge("cfs.arena_bytes",
               static_cast<double>(state.fold.ifaces.arena_bytes()));
  Trace::gauge("cfs.arena_reserved_bytes",
               static_cast<double>(Arena::process_reserved_bytes()));
  Trace::gauge("cfs.tail_spilled_bytes",
               static_cast<double>(state.cache.rows().spilled_tail_bytes()));
  Trace::gauge("process.peak_rss_bytes",
               static_cast<double>(Trace::peak_rss_bytes()));
  run_timer.arg("resolved", report.resolved_interfaces());
  state.metrics.total_ms = run_timer.stop();
  report.metrics = std::move(state.metrics);

  log_info() << "CFS: " << report.resolved_interfaces() << "/"
             << report.observed_interfaces() << " interfaces resolved in "
             << report.iterations_run << " iterations over "
             << report.traces_used << " traces";
  return report;
}

}  // namespace cfs
