#include "traceroute/shard.h"

#include <algorithm>

namespace cfs {

ShardPlan ShardPlan::build(const Topology& topo, std::uint32_t shards) {
  ShardPlan plan;
  plan.shards_ = std::max<std::uint32_t>(1, shards);
  plan.owners_.reserve(topo.metros().size());
  for (const Metro& metro : topo.metros())
    plan.owners_.emplace_back(metro.id.value, 0);
  std::sort(plan.owners_.begin(), plan.owners_.end());
  for (std::size_t i = 0; i < plan.owners_.size(); ++i)
    plan.owners_[i].second = static_cast<std::uint32_t>(i) % plan.shards_;
  return plan;
}

std::uint32_t ShardPlan::shard_of(MetroId metro) const {
  const auto it = std::lower_bound(
      owners_.begin(), owners_.end(),
      std::make_pair(metro.value, std::uint32_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it != owners_.end() && it->first == metro.value) return it->second;
  return metro.value % shards_;
}

}  // namespace cfs
