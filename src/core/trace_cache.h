// Per-trace Step-1 cache shared by both engines (paper Sections 4.1-4.2).
//
// CFS classifies each trace's crossings under an IP-to-ASN map that
// alias-majority and border corrections keep revising. Classification of
// one trace reads only its responded hop addresses, the static IP-to-ASN /
// IXP data and the corrected map, so a correction can change the result
// of exactly the traces that traverse a corrected address. TraceCache owns
// the trace rows, each row's cached observations and an address -> rows
// index over responded hops, and re-derives just those rows on
// `reclassify`; callers replay `observations()` in row order into their
// fold (core/fold.h). The batch engine (core/cfs.cpp) accumulates
// corrections in one map and hands `take_changed()` to `reclassify`; the
// stream engine (stream/engine.cpp) diffs consecutive epochs' correction
// tables instead. The batch full engine re-classifies every row with
// `reclassify_all` and never consults the index.
//
// Classification is pure per trace, so the fan-out runs chunks on the pool
// into index-ordered slots: results, and every fold fed from them, are
// byte-identical at any thread count. Rows may be a spilled column corpus
// (docs/SCALE.md); reads materialize into per-chunk scratch and every
// ordered scan drops spilled pages behind itself.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/classify.h"
#include "data/corpus/trace_store.h"
#include "util/thread_pool.h"

namespace cfs {

class TraceCache {
 public:
  explicit TraceCache(corpus::TraceStore rows = {},
                      ThreadPool* pool = nullptr);

  [[nodiscard]] const corpus::TraceStore& rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  // Rows [0, cached()) hold observations; appended rows wait for
  // classify_new.
  [[nodiscard]] std::size_t cached() const { return obs_.size(); }
  // Cached observations, one list per row, in row order.
  [[nodiscard]] const std::vector<std::vector<PeeringObservation>>&
  observations() const {
    return obs_;
  }

  void append(TraceResult trace) { rows_.append(std::move(trace)); }

  // The classification fan-out: classifies `indices` (ascending) into
  // per-index slots, on the pool when one is attached and there are enough
  // rows to pay for it.
  [[nodiscard]] std::vector<std::vector<PeeringObservation>> classify(
      const HopClassifier& classifier,
      const std::vector<std::uint32_t>& indices) const;

  // Classifies, caches and indexes rows [cached(), size()), then pushes a
  // spilled store's follow-up tail out of core (it is only re-read from
  // here on). Returns the first new row.
  std::size_t classify_new(const HopClassifier& classifier);

  // Re-classifies the cached rows whose responded hops include a changed
  // address. Returns those rows, ascending.
  std::vector<std::uint32_t> reclassify(const HopClassifier& classifier,
                                        const std::vector<Ipv4>& changed);
  // Re-classifies every cached row; returns them all, ascending.
  std::vector<std::uint32_t> reclassify_all(const HopClassifier& classifier);

  // Calls fn(row, trace) for rows [begin, size()) in row order, dropping
  // spilled pages behind itself.
  template <typename Fn>
  void scan(std::size_t begin, Fn&& fn) const {
    TraceResult scratch;
    std::size_t released = begin;
    for (std::size_t i = begin; i < rows_.size(); ++i) {
      fn(i, rows_.at(i, scratch));
      if (i + 1 - released >= kReleaseWindow) {
        rows_.release_range(released, i + 1);
        released = i + 1;
      }
    }
    rows_.release_range(released, rows_.size());
  }

 private:
  // Rows are released behind scans in windows of this many traces: large
  // enough that madvise costs vanish, small enough that the resident
  // window stays a rounding error next to the dense state.
  static constexpr std::size_t kReleaseWindow = 8192;

  void reclassify_rows(const HopClassifier& classifier,
                       const std::vector<std::uint32_t>& indices);

  corpus::TraceStore rows_;
  ThreadPool* pool_ = nullptr;
  std::vector<std::vector<PeeringObservation>> obs_;
  // Responded hop address -> rows crossing it, ascending.
  std::unordered_map<Ipv4, std::vector<std::uint32_t>> rows_by_addr_;
};

}  // namespace cfs
