#include "core/trace_cache.h"

#include <iterator>
#include <numeric>

#include "util/trace.h"

namespace cfs {

TraceCache::TraceCache(corpus::TraceStore rows, ThreadPool* pool)
    : rows_(std::move(rows)), pool_(pool) {}

std::vector<std::vector<PeeringObservation>> TraceCache::classify(
    const HopClassifier& classifier,
    const std::vector<std::uint32_t>& indices) const {
  // Below this the fan-out overhead beats the classification work itself.
  constexpr std::size_t kParallelThreshold = 32;
  std::vector<std::vector<PeeringObservation>> out(indices.size());
  TraceSpan span("cfs.classify");
  span.arg("traces", indices.size());
  // Each chunk owns its scratch, so spilled reads are race-free by
  // construction, and chunk row ranges are disjoint (indices ascend), so the
  // trailing page release only drops rows this chunk is done with.
  // Chunk boundaries are a pure function of (n, workers), so the chunk
  // spans describe the same work at any thread count.
  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    if (begin == end) return;
    TraceResult scratch;
    for (std::size_t i = begin; i < end; ++i)
      out[i] = classifier.classify(rows_.at(indices[i], scratch));
    rows_.release_range(indices[begin], indices[end - 1] + 1);
  };
  if (pool_ != nullptr && indices.size() >= kParallelThreshold) {
    pool_->parallel_for_chunks(
        indices.size(), [&](std::size_t begin, std::size_t end) {
          TraceSpan chunk("cfs.classify_chunk");
          chunk.arg("begin", begin);
          chunk.arg("count", end - begin);
          run_chunk(begin, end);
        });
  } else {
    run_chunk(0, indices.size());
  }
  return out;
}

std::size_t TraceCache::classify_new(const HopClassifier& classifier) {
  const std::size_t first = cached();
  std::vector<std::uint32_t> fresh(size() - first);
  std::iota(fresh.begin(), fresh.end(), static_cast<std::uint32_t>(first));
  std::vector<std::vector<PeeringObservation>> classified =
      classify(classifier, fresh);
  obs_.insert(obs_.end(), std::make_move_iterator(classified.begin()),
              std::make_move_iterator(classified.end()));

  scan(first, [this](std::size_t i, const TraceResult& trace) {
    for (const Hop& hop : trace.hops) {
      if (!hop.responded) continue;
      std::vector<std::uint32_t>& rows = rows_by_addr_[hop.address];
      if (rows.empty() || rows.back() != i)
        rows.push_back(static_cast<std::uint32_t>(i));
    }
  });
  rows_.spill_tail();
  return first;
}

std::vector<std::uint32_t> TraceCache::reclassify(
    const HopClassifier& classifier, const std::vector<Ipv4>& changed) {
  std::vector<char> stale(cached(), 0);
  for (const Ipv4 addr : changed)
    if (const auto it = rows_by_addr_.find(addr); it != rows_by_addr_.end())
      for (const std::uint32_t row : it->second) stale[row] = 1;
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < stale.size(); ++i)
    if (stale[i]) rows.push_back(static_cast<std::uint32_t>(i));
  reclassify_rows(classifier, rows);
  return rows;
}

std::vector<std::uint32_t> TraceCache::reclassify_all(
    const HopClassifier& classifier) {
  std::vector<std::uint32_t> rows(cached());
  std::iota(rows.begin(), rows.end(), 0u);
  reclassify_rows(classifier, rows);
  return rows;
}

void TraceCache::reclassify_rows(const HopClassifier& classifier,
                                 const std::vector<std::uint32_t>& indices) {
  std::vector<std::vector<PeeringObservation>> classified =
      classify(classifier, indices);
  for (std::size_t j = 0; j < indices.size(); ++j)
    obs_[indices[j]] = std::move(classified[j]);
}

}  // namespace cfs
