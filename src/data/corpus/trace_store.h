// TraceStore: the CFS engine's view of its trace corpus, either fully
// in-memory (the historical representation) or backed by an on-disk
// column corpus plus the follow-up tail.
//
// Rows are addressed by their global position: a spilled corpus row is
// its position in the campaign's keep-order, and follow-up traces
// appended during the CFS iterations occupy positions past the spilled
// base. An in-memory store hands out references to its own vector — the
// hot path pays nothing for the abstraction — while a spilled store
// materializes the requested row into caller-owned scratch, so concurrent
// readers (classification chunks) stay data-race-free by construction.
//
// A spilled store additionally pushes its *consumed* follow-up tail out
// of core (TailSpill): once CFS has classified a batch of follow-ups,
// spill_tail() moves them into an unlinked scratch file next to the
// corpus, and later scans (border mapping, reclassification) rematerialize
// them through pread into scratch. At scale the follow-up tail is the
// dominant per-trace cost of a spilled run, so without this the engine's
// "peak RSS stops scaling with trace volume" promise quietly erodes.
#pragma once

#include <memory>
#include <vector>

#include "data/corpus/corpus.h"
#include "data/corpus/tail_spill.h"
#include "traceroute/engine.h"

namespace cfs::corpus {

class TraceStore {
 public:
  TraceStore() = default;
  explicit TraceStore(std::vector<TraceResult> in_memory)
      : tail_(std::move(in_memory)) {}
  explicit TraceStore(std::shared_ptr<const TraceCorpusReader> base)
      : reader_(std::move(base)),
        base_rows_(reader_ != nullptr ? reader_->traces() : 0) {}

  [[nodiscard]] std::size_t size() const {
    return base_rows_ + spilled_tail_rows() + tail_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] bool spilled() const { return reader_ != nullptr; }
  [[nodiscard]] std::size_t base_rows() const { return base_rows_; }
  [[nodiscard]] const TraceCorpusReader* reader() const {
    return reader_.get();
  }
  [[nodiscard]] std::size_t spilled_tail_rows() const {
    return tail_spill_ != nullptr ? tail_spill_->rows() : 0;
  }
  [[nodiscard]] std::uint64_t spilled_tail_bytes() const {
    return tail_spill_ != nullptr ? tail_spill_->bytes() : 0;
  }

  void append(TraceResult&& trace) { tail_.push_back(std::move(trace)); }

  // Moves the resident follow-up tail into the out-of-core scratch file.
  // No-op for in-memory stores (the in-memory engine is the reference
  // semantics and keeps everything resident). Call only between scans:
  // references previously returned by at() for tail rows are invalidated.
  void spill_tail() {
    if (reader_ == nullptr || tail_.empty()) return;
    if (tail_spill_ == nullptr) tail_spill_ = TailSpill::create(reader_->dir());
    for (const TraceResult& trace : tail_) tail_spill_->append(trace);
    tail_.clear();
    tail_.shrink_to_fit();
  }

  // Row access. In-memory rows (and the not-yet-spilled tail) come back
  // by reference; spilled base rows and spilled tail rows are materialized
  // into `scratch`.
  const TraceResult& at(std::size_t i, TraceResult& scratch) const {
    if (i < base_rows_) {
      reader_->materialize(i, scratch);
      return scratch;
    }
    const std::size_t j = i - base_rows_;
    const std::size_t spilled_rows = spilled_tail_rows();
    if (j < spilled_rows) {
      tail_spill_->materialize(j, scratch);
      return scratch;
    }
    return tail_[j - spilled_rows];
  }

  // Drops resident pages backing spilled rows [begin, end). A no-op for
  // in-memory stores and for ranges past the spilled base (the tail
  // scratch file is read via pread and owns no resident pages).
  void release_range(std::size_t begin, std::size_t end) const {
    if (reader_ == nullptr) return;
    reader_->release_range(begin, std::min(end, base_rows_));
  }

 private:
  std::shared_ptr<const TraceCorpusReader> reader_;  // null => in-memory
  std::size_t base_rows_ = 0;
  std::unique_ptr<TailSpill> tail_spill_;  // null until first spill_tail()
  std::vector<TraceResult> tail_;
};

}  // namespace cfs::corpus
