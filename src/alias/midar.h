// MIDAR-style alias-resolution pipeline.
//
// Stage 1 (estimation): probe every target interleaved, estimate per-
// interface counter velocity, discard unresponsive / constant / randomised
// sources. Stage 2 (sieve): sort by velocity and only consider pairs whose
// velocities are compatible. Stage 3 (corroboration): run the monotonic
// bounds test on freshly collected interleaved samples for each candidate
// pair; passing pairs are merged with union-find into alias sets. Replies
// are screened as they arrive and computed only up to the first delta no
// acceptable velocity allows (delta_exceeds_any_budget), which fails the
// round exactly as the full test would; most pairs stop after one or two
// replies.
//
// probes_sent() still counts every scheduled probe, including those whose
// replies a screened-out round never computes, and such a round leaves
// the virtual clock and the Random-IPID stream where a full collection
// would: sets, unresolved targets and probe counts are those of
// collecting every reply first.
#pragma once

#include <vector>

#include "alias/ipid.h"
#include "alias/mbt.h"

namespace cfs {

struct AliasSets {
  // Each entry is one inferred router: all addresses believed to be its
  // interfaces. Singletons are included (resolved but unaliased).
  std::vector<std::vector<Ipv4>> sets;
  // Targets that never produced usable IP-ID series.
  std::vector<Ipv4> unresolved;

  // Set index containing an address, or -1.
  [[nodiscard]] int set_of(Ipv4 addr) const;
};

class AliasResolver {
 public:
  AliasResolver(const Topology& topo, std::uint64_t seed);

  [[nodiscard]] AliasSets resolve(const std::vector<Ipv4>& targets);

  [[nodiscard]] std::size_t probes_sent() const { return probes_; }

 private:
  IpIdModel model_;
  std::size_t probes_ = 0;
  double clock_s_ = 0.0;
};

// Minimal union-find used by the resolver (exposed for reuse/testing).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  std::size_t find(std::size_t x);
  void unite(std::size_t a, std::size_t b);
  [[nodiscard]] std::size_t size() const { return parent_.size(); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace cfs
