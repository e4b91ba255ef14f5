// MIDAR-style alias-resolution pipeline.
//
// Stage 1 (estimation): probe every target interleaved, estimate per-
// interface counter velocity, discard unresponsive / constant / randomised
// sources. Stage 2 (sieve): sort by velocity and only consider pairs whose
// velocities are compatible. Stage 3 (corroboration): run the monotonic
// bounds test on freshly collected interleaved samples for each candidate
// pair; passing pairs are merged with union-find into alias sets.
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
