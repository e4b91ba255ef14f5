// Streaming epoch engine: folds a timestamped event stream into CFS
// inference state and publishes an immutable snapshot per epoch.
//
// Correctness contract (docs/STREAMING.md, enforced by the stream_prefix
// fuzz oracle): folding a stream epoch-by-epoch yields, after every epoch,
// canonical snapshot bytes identical to a fresh engine folding the whole
// event prefix as ONE epoch. Partition invariance is achieved by keeping
// only order-free or prefix-pure state across epochs and re-deriving the
// rest per epoch from canonical inputs:
//
//   * each trace is classified under the raw map once, on arrival (the
//     raw map never changes), and only feeds the alias-resolution target
//     set — a std::set, order-free;
//   * alias resolution is re-run when the target set grows, on one
//     resolver kept across epochs: its sets are a pure function of the
//     sorted targets (alias/midar.h), and it only tests pairs with a new
//     address;
//   * border-mapping evidence accumulates one trace at a time; its
//     corrections are a pure function of the trace multiset;
//   * the corrected ASN map is rebuilt FRESH each epoch from (aliases,
//     border corrections) — never accumulated across epochs, where
//     first-writer-wins correction tables would make results depend on
//     the epoch partition;
//   * per-trace classifications under the corrected map live in the
//     per-trace observation cache shared with the batch engine
//     (core/trace_cache.h); the addresses whose correction differs between
//     consecutive epochs' tables select the rows it re-classifies;
//   * observation merging, Step 2, alias propagation and link typing run
//     from scratch per epoch in one fresh ConstraintFold (core/fold.h), the
//     batch engine's own kernel, fed by replaying the cache in trace order;
//     its passes walk observations in canonical (near, far) key order.
//
// The expensive stages — classification, alias probing — are incremental;
// the per-epoch fold is linear in accumulated state. Classification fans
// out across the thread pool into index-ordered slots, so snapshots are
// byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "alias/midar.h"
#include "core/bordermap.h"
#include "core/classify.h"
#include "core/remote.h"
#include "core/report.h"
#include "core/trace_cache.h"
#include "data/facility_db.h"
#include "stream/events.h"
#include "util/thread_pool.h"

namespace cfs {

struct StreamEngineConfig {
  std::uint64_t seed = 99;
  RemoteDetectorConfig remote;
};

// Immutable result of one epoch fold.
struct StreamSnapshot {
  // Fold ordinal on this engine (1-based). Deliberately NOT part of the
  // canonical bytes: it depends on how the stream was partitioned.
  std::uint64_t epoch = 0;

  // Cumulative stream position — pure functions of the event prefix.
  std::uint64_t last_ts_ns = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t pdb_events = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t vps_down = 0;

  CfsReport report;

  // Canonical snapshot bytes: serialized report (minus metrics) plus the
  // cumulative counters above. Two engines that consumed the same event
  // prefix — in any epoch partition, at any thread count — produce
  // byte-identical canonical strings.
  std::string canonical;
};

class StreamEngine {
 public:
  // `db` is taken by value: PeeringDB delta events mutate the engine's own
  // copy, leaving the caller's database untouched.
  StreamEngine(const Topology& topo, const IpToAsnService& ip2asn,
               FacilityDatabase db, const StreamEngineConfig& config = {},
               ThreadPool* pool = nullptr);

  // Folds one contiguous slice of the stream and derives the snapshot.
  // Events must arrive in stream order across calls.
  [[nodiscard]] StreamSnapshot fold_epoch(std::span<const StreamEvent> events);

  [[nodiscard]] std::size_t traces_ingested() const { return cache_.size(); }
  [[nodiscard]] const FacilityDatabase& facility_db() const { return db_; }

 private:
  const Topology& topo_;
  const IpToAsnService& ip2asn_;
  FacilityDatabase db_;  // owned: PdbDelta events mutate it
  StreamEngineConfig config_;

  // Raw (correction-free) classification basis; valid forever.
  InterfaceAsnMap raw_map_;

  // Every ingested trace, classified under the latest epoch map.
  TraceCache cache_;

  // Alias-resolution targets: endpoints of raw observations (order-free).
  std::set<Ipv4> present0_;
  std::size_t aliased_count_ = 0;  // present0_ size at last resolve
  AliasResolver resolver_;
  AliasSets aliases_;

  BorderMapper border_;
  std::size_t border_upto_ = 0;

  // Correction table of the previous epoch's rebuilt map; diffed against
  // the fresh table to find traces whose classification went stale.
  std::unordered_map<Ipv4, Asn> prev_corrections_;

  std::uint64_t epoch_ = 0;
  std::uint64_t last_ts_ns_ = 0;
  std::uint64_t trace_events_ = 0;
  std::uint64_t churn_events_ = 0;
  std::uint64_t pdb_events_ = 0;
  std::uint64_t fault_events_ = 0;
  std::set<std::uint32_t> vps_down_;
};

}  // namespace cfs
