// Dense structure-of-arrays interface-inference table.
//
// One row per interned address handle (util/intern.h); rows become
// `present` the first time an address appears as a peering endpoint.
// The mutable hot columns (candidate span, flags, counters) are flat
// arrays the constraint fold indexes directly — no hashing per touch.
//
// Candidate sets live in an arena (util/arena.h): the first constraint
// copies the allowed list into a span sized once, and every later
// narrowing shrinks that span in place via intersect_in_place, which
// writes only to already-consumed positions — an intersection that would
// empty the set writes nothing, so the conflict-rejection path keeps the
// original set intact for free. Spans never grow after first assignment
// (constraints only intersect), so the arena is append-only for the
// lifetime of a run and freed wholesale with it.
//
// `constrain` is the only candidate-narrowing code in the system: both
// engines reach it through the shared fold (core/fold.h). Report-facing
// InterfaceInference values (core/candidates.h) are materialised per row
// when the report is built.
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidates.h"
#include "util/arena.h"
#include "util/bitset.h"

namespace cfs {

class IfaceTable {
 public:
  using Handle = std::uint32_t;

  // Grows every column to `n` rows (new rows absent).
  void ensure_rows(std::size_t n);

  // Creates the row on first touch; always refreshes addr/asn (the last
  // classification wins, matching the old absorb's overwrite).
  void touch(Handle h, Ipv4 addr, Asn asn);

  [[nodiscard]] bool present(Handle h) const { return present_.test(h); }
  [[nodiscard]] std::size_t rows() const { return addr_.size(); }
  [[nodiscard]] std::size_t present_count() const { return present_count_; }

  [[nodiscard]] Ipv4 addr(Handle h) const { return addr_[h]; }
  [[nodiscard]] Asn asn(Handle h) const { return asn_[h]; }
  [[nodiscard]] bool has_constraint(Handle h) const {
    return has_constraint_.test(h);
  }
  [[nodiscard]] const FacilityId* cand_data(Handle h) const {
    return cand_[h];
  }
  [[nodiscard]] std::uint32_t cand_size(Handle h) const { return cand_n_[h]; }
  [[nodiscard]] bool resolved(Handle h) const {
    return has_constraint_.test(h) && cand_n_[h] == 1;
  }
  [[nodiscard]] bool remote_suspect(Handle h) const {
    return remote_.test(h);
  }
  void mark_remote(Handle h) { remote_.set(h); }

  void note_seen_from(Handle h, VantagePointId vp);  // push-if-absent
  void add_queried_ixp(Handle h, IxpId ixp);         // push-if-absent
  [[nodiscard]] const std::vector<VantagePointId>& seen_from(Handle h) const {
    return seen_from_[h];
  }
  [[nodiscard]] const std::vector<IxpId>& queried_ixps(Handle h) const {
    return queried_ixps_[h];
  }

  // Intersects the row's candidate span with the sorted-unique
  // allowed[0..n). The first constraint adopts the list; an empty list is
  // ignored; an intersection that would empty the set is counted as a
  // conflict and ignored (stale data must not erase good constraints).
  // `iteration` is recorded when the set first becomes a singleton.
  // Returns true when the set narrowed (or was first assigned).
  bool constrain(Handle h, const FacilityId* allowed, std::size_t n,
                 int iteration);

  // Copies a row out into the report-facing value type.
  [[nodiscard]] InterfaceInference materialize(Handle h) const;

  [[nodiscard]] std::uint64_t arena_bytes() const {
    return arena_.bytes_allocated();
  }

 private:
  Arena arena_;
  // SoA columns, indexed by handle.
  std::vector<Ipv4> addr_;
  std::vector<Asn> asn_;
  std::vector<FacilityId*> cand_;
  std::vector<std::uint32_t> cand_n_;
  std::vector<std::int32_t> resolved_iter_;
  std::vector<std::int32_t> conflicts_;
  DynamicBitset present_;
  DynamicBitset has_constraint_;
  DynamicBitset remote_;
  std::vector<std::vector<VantagePointId>> seen_from_;
  std::vector<std::vector<IxpId>> queried_ixps_;
  std::size_t present_count_ = 0;
};

}  // namespace cfs
