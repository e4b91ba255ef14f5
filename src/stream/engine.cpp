#include "stream/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/fold.h"
#include "io/export.h"
#include "util/trace.h"

namespace cfs {

StreamEngine::StreamEngine(const Topology& topo, const IpToAsnService& ip2asn,
                           FacilityDatabase db,
                           const StreamEngineConfig& config, ThreadPool* pool)
    : topo_(topo),
      ip2asn_(ip2asn),
      db_(std::move(db)),
      config_(config),
      raw_map_(ip2asn),
      cache_({}, pool),
      resolver_(topo, config.seed),
      border_(ip2asn) {}

StreamSnapshot StreamEngine::fold_epoch(std::span<const StreamEvent> events) {
  // ---- 1. consume the slice ----
  for (const StreamEvent& event : events) {
    last_ts_ns_ = std::max(last_ts_ns_, event.ts_ns);
    switch (event.kind) {
      case StreamEventKind::TraceArrival:
        ++trace_events_;
        cache_.append(event.trace);
        break;
      case StreamEventKind::VpChurn:
        ++churn_events_;
        if (event.vp_up)
          vps_down_.erase(event.vp.value);
        else
          vps_down_.insert(event.vp.value);
        break;
      case StreamEventKind::PdbDelta:
        ++pdb_events_;
        db_.remove_facility(event.removed_facility);
        break;
      case StreamEventKind::Fault:
        ++fault_events_;
        break;
    }
  }

  // ---- 2. raw classification of new traces: alias targets ----
  // The raw map never changes, so each trace contributes its targets once.
  std::vector<std::uint32_t> fresh(cache_.size() - cache_.cached());
  std::iota(fresh.begin(), fresh.end(),
            static_cast<std::uint32_t>(cache_.cached()));
  const HopClassifier raw(ip2asn_, raw_map_);
  for (const std::vector<PeeringObservation>& obs_list :
       cache_.classify(raw, fresh)) {
    for (const PeeringObservation& obs : obs_list) {
      present0_.insert(obs.near_addr);
      present0_.insert(obs.far_addr);
    }
  }

  // ---- 3. alias resolution, re-run when the target set grows ----
  // Addresses only ever join the set, so size is identity. The resolver's
  // answer is a pure function of the sorted target list, and it memoises
  // every earlier epoch's work.
  if (present0_.size() != aliased_count_) {
    TraceSpan alias_span("stream.alias");
    alias_span.arg("targets", present0_.size());
    alias_span.arg("new_targets", present0_.size() - aliased_count_);
    const std::vector<Ipv4> targets(present0_.begin(), present0_.end());
    aliases_ = resolver_.resolve(targets);
    aliased_count_ = present0_.size();
  }

  // ---- 4. border evidence: each trace fed exactly once, in order ----
  TraceSpan ingest_span("border.ingest");
  ingest_span.arg("traces", cache_.size() - border_upto_);
  cache_.scan(border_upto_, [this](std::size_t, const TraceResult& trace) {
    border_.ingest(trace);
  });
  border_upto_ = cache_.size();
  ingest_span.stop();

  // ---- 5. fresh corrected map (never accumulated across epochs) ----
  TraceSpan corrections_span("border.corrections");
  InterfaceAsnMap epoch_map(ip2asn_);
  epoch_map.apply_alias_correction(aliases_);
  {
    // Scoped: the mapper's table is freed before steps 6-8 allocate.
    const auto corrections = border_.corrections();
    corrections_span.arg("corrections", corrections.size());
    epoch_map.apply_border_corrections(corrections);
  }
  corrections_span.stop();

  // ---- 6. re-classify by correction-table diff, then the new traces ----
  const std::unordered_map<Ipv4, Asn>& cur = epoch_map.corrected_map();
  std::vector<Ipv4> changed;
  for (const auto& [addr, asn] : cur) {
    const auto it = prev_corrections_.find(addr);
    if (it == prev_corrections_.end() || it->second != asn)
      changed.push_back(addr);
  }
  for (const auto& [addr, asn] : prev_corrections_)
    if (cur.find(addr) == cur.end()) changed.push_back(addr);
  prev_corrections_ = cur;
  const HopClassifier cooked(ip2asn_, epoch_map);
  cache_.reclassify(cooked, changed);
  cache_.classify_new(cooked);

  // ---- 7. one fresh fold: merge in trace order, Steps 2-3, report ----
  // The batch engine's kernel (core/fold.h) at iteration 0: one Step-2 pass
  // in key order, one alias pass in set order, then link typing.
  ConstraintFold fold;
  for (const std::vector<PeeringObservation>& obs_list : cache_.observations())
    for (const PeeringObservation& obs : obs_list) fold.absorb(obs);
  const RemotePeeringDetector detector(config_.remote);
  fold.step2_pass(topo_, db_, detector, /*iteration=*/0);
  fold.alias_pass(aliases_, /*iteration=*/0);
  CfsReport report = fold.build_report(db_, detector);
  report.aliases = aliases_;
  report.traces_used = cache_.size();
  report.iterations_run = 0;

  // ---- 8. snapshot + canonical bytes ----
  StreamSnapshot snapshot;
  snapshot.epoch = ++epoch_;
  snapshot.last_ts_ns = last_ts_ns_;
  snapshot.trace_events = trace_events_;
  snapshot.churn_events = churn_events_;
  snapshot.pdb_events = pdb_events_;
  snapshot.fault_events = fault_events_;
  snapshot.vps_down = vps_down_.size();

  JsonValue report_json = report_to_json(report);
  // Metrics carry timings — never part of any byte-equivalence contract.
  report_json.as_object().erase("metrics");
  JsonValue::Object canon;
  canon.emplace("report", std::move(report_json));
  canon.emplace("last_ts_ns", snapshot.last_ts_ns);
  canon.emplace("trace_events", snapshot.trace_events);
  canon.emplace("churn_events", snapshot.churn_events);
  canon.emplace("pdb_events", snapshot.pdb_events);
  canon.emplace("fault_events", snapshot.fault_events);
  canon.emplace("vps_down", snapshot.vps_down);
  snapshot.canonical = JsonValue(std::move(canon)).dump();
  snapshot.report = std::move(report);
  return snapshot;
}

}  // namespace cfs
