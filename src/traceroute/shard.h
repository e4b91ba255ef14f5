// Metro shard ownership for the spilled corpus (docs/SCALE.md).
//
// A ShardPlan is an explicit ownership table: every metro in the topology
// is assigned to exactly one shard, and every kept campaign trace is
// written to the shard owning its executing VP's metro. The plan decides
// corpus placement only; the campaign itself is one serial pass that
// never sees it. The plan is a pure function of the topology and the
// shard count — sorted metro ids dealt round-robin — so the writer and a
// later re-open of the corpus always agree on who owns what.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.h"

namespace cfs {

class ShardPlan {
 public:
  // Deals the topology's metros (ascending id) round-robin over `shards`.
  static ShardPlan build(const Topology& topo, std::uint32_t shards);

  [[nodiscard]] std::uint32_t shards() const { return shards_; }

  // Owner of a metro. Metros unknown to the plan (impossible for a plan
  // built from the same topology) fall back to id % shards, so the map
  // is total either way.
  [[nodiscard]] std::uint32_t shard_of(MetroId metro) const;

 private:
  std::uint32_t shards_ = 1;
  // Sorted (metro id, shard) pairs; binary-searched by shard_of.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> owners_;
};

}  // namespace cfs
