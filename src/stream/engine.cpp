#include "stream/engine.h"

#include <algorithm>
#include <utility>

#include "core/fold.h"
#include "io/export.h"

namespace cfs {

StreamEngine::StreamEngine(const Topology& topo, const IpToAsnService& ip2asn,
                           FacilityDatabase db,
                           const StreamEngineConfig& config, ThreadPool* pool)
    : topo_(topo),
      ip2asn_(ip2asn),
      db_(std::move(db)),
      config_(config),
      pool_(pool),
      raw_map_(ip2asn),
      border_(ip2asn) {}

void StreamEngine::classify_into(
    const HopClassifier& classifier, const std::vector<std::uint32_t>& indices,
    std::vector<std::vector<PeeringObservation>>& out) const {
  // Same fan-out threshold as the batch engine: below this the chunk
  // overhead beats the classification work.
  constexpr std::size_t kParallelThreshold = 32;
  if (pool_ != nullptr && indices.size() >= kParallelThreshold) {
    pool_->parallel_for_chunks(
        indices.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            out[indices[i]] = classifier.classify(traces_[indices[i]]);
        });
  } else {
    for (const std::uint32_t idx : indices)
      out[idx] = classifier.classify(traces_[idx]);
  }
}

StreamSnapshot StreamEngine::fold_epoch(std::span<const StreamEvent> events) {
  // ---- 1. consume the slice ----
  const std::size_t first_new = traces_.size();
  for (const StreamEvent& event : events) {
    last_ts_ns_ = std::max(last_ts_ns_, event.ts_ns);
    switch (event.kind) {
      case StreamEventKind::TraceArrival:
        ++trace_events_;
        traces_.push_back(event.trace);
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
  raw_obs_.resize(traces_.size());
  cooked_obs_.resize(traces_.size());

  // ---- 2. raw classification of new traces (cache valid forever) ----
  std::vector<std::uint32_t> fresh_idx;
  fresh_idx.reserve(traces_.size() - first_new);
  for (std::size_t i = first_new; i < traces_.size(); ++i)
    fresh_idx.push_back(static_cast<std::uint32_t>(i));
  {
    const HopClassifier raw(ip2asn_, raw_map_);
    classify_into(raw, fresh_idx, raw_obs_);
  }
  for (const std::uint32_t i : fresh_idx) {
    for (const Hop& hop : traces_[i].hops) {
      if (!hop.responded) continue;
      auto& slot = traces_by_addr_[hop.address];
      if (slot.empty() || slot.back() != i) slot.push_back(i);
    }
    for (const PeeringObservation& obs : raw_obs_[i]) {
      present0_.insert(obs.near_addr);
      present0_.insert(obs.far_addr);
    }
  }

  // ---- 3. alias resolution, memoized on the target set ----
  // A fresh resolver per run makes the sets a pure function of the sorted
  // target list; addresses only ever join the set, so size is identity.
  if (present0_.size() != aliased_count_) {
    const std::vector<Ipv4> targets(present0_.begin(), present0_.end());
    AliasResolver resolver(topo_, config_.seed);
    aliases_ = resolver.resolve(targets);
    aliased_count_ = present0_.size();
  }

  // ---- 4. border evidence: each trace fed exactly once, in order ----
  for (; border_upto_ < traces_.size(); ++border_upto_)
    border_.ingest(traces_[border_upto_]);

  // ---- 5. fresh corrected map (never accumulated across epochs) ----
  InterfaceAsnMap epoch_map(ip2asn_);
  epoch_map.apply_alias_correction(aliases_);
  epoch_map.apply_border_corrections(border_.corrections());

  // ---- 6. invalidate cooked classifications by correction-table diff ----
  const std::unordered_map<Ipv4, Asn>& cur = epoch_map.corrected_map();
  std::vector<char> stale(cooked_upto_, 0);
  const auto mark_stale = [&](Ipv4 addr) {
    const auto it = traces_by_addr_.find(addr);
    if (it == traces_by_addr_.end()) return;
    for (const std::uint32_t idx : it->second)
      if (idx < cooked_upto_) stale[idx] = 1;
  };
  for (const auto& [addr, asn] : cur) {
    const auto it = prev_corrections_.find(addr);
    if (it == prev_corrections_.end() || it->second != asn) mark_stale(addr);
  }
  for (const auto& [addr, asn] : prev_corrections_)
    if (cur.find(addr) == cur.end()) mark_stale(addr);
  prev_corrections_ = cur;

  std::vector<std::uint32_t> todo;
  for (std::size_t i = 0; i < cooked_upto_; ++i)
    if (stale[i]) todo.push_back(static_cast<std::uint32_t>(i));
  todo.insert(todo.end(), fresh_idx.begin(), fresh_idx.end());
  {
    const HopClassifier cooked(ip2asn_, epoch_map);
    classify_into(cooked, todo, cooked_obs_);
  }
  cooked_upto_ = traces_.size();

  // ---- 7. one fresh fold: merge in trace order, Steps 2-3, report ----
  // The batch engine's kernel (core/fold.h) at iteration 0: one Step-2 pass
  // in key order, one alias pass in set order, then link typing.
  ConstraintFold fold;
  for (const std::vector<PeeringObservation>& obs_list : cooked_obs_)
    for (const PeeringObservation& obs : obs_list) fold.absorb(obs);
  const RemotePeeringDetector detector(config_.remote);
  fold.step2_pass(topo_, db_, detector, /*iteration=*/0);
  fold.alias_pass(aliases_, /*iteration=*/0);
  CfsReport report = fold.build_report(db_, detector);
  report.aliases = aliases_;
  report.traces_used = traces_.size();
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
