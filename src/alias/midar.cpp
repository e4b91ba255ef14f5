#include "alias/midar.h"

#include <algorithm>
#include <unordered_map>

namespace cfs {
namespace {

// Probing schedule: samples per target in each collection, the spacing of
// consecutive probes, and the corroboration rounds per compatible pair
// with their virtual-time spacing (Stage 3 says why it is large).
constexpr int kSamples = 12;
constexpr double kProbeIntervalS = 0.1;
constexpr int kCorroborationRounds = 3;
constexpr double kRoundSpacingS = 1200.0;

}  // namespace

UnionFind::UnionFind(std::size_t n) : parent_(n), rank_(n, 0) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

void UnionFind::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = a;
  if (rank_[a] == rank_[b]) ++rank_[a];
}

int AliasSets::set_of(Ipv4 addr) const {
  for (std::size_t i = 0; i < sets.size(); ++i)
    if (std::find(sets[i].begin(), sets[i].end(), addr) != sets[i].end())
      return static_cast<int>(i);
  return -1;
}

AliasResolver::AliasResolver(const Topology& topo, std::uint64_t seed)
    : model_(topo, seed) {}

AliasSets AliasResolver::resolve(const std::vector<Ipv4>& targets) {
  AliasSets out;

  // Deduplicate input while preserving order.
  std::vector<Ipv4> addrs;
  {
    std::unordered_map<Ipv4, bool> seen;
    for (const Ipv4 a : targets)
      if (!std::exchange(seen[a], true)) addrs.push_back(a);
  }

  // Compile every target once: the per-probe interface/router/counter
  // hash lookups move out of the probing loops (Stage 3 alone issues
  // O(pairs * rounds * samples) probes — hundreds of millions at paper
  // scale).
  std::vector<IpIdModel::CompiledTarget> compiled(addrs.size());
  for (std::size_t k = 0; k < addrs.size(); ++k)
    compiled[k] = model_.compile(addrs[k]);

  // --- Stage 1: estimation ---
  //
  // Round-robin collection: kSamples rounds, each probing every target
  // once, one probe every kProbeIntervalS of virtual time. Series are flat
  // and index-aligned with addrs; a target that never answers keeps an
  // empty series.
  std::vector<IpIdSeries> series(addrs.size());
  for (auto& s : series) s.reserve(static_cast<std::size_t>(kSamples));
  {
    double clock = clock_s_;
    for (int round = 0; round < kSamples; ++round)
      for (std::size_t k = 0; k < addrs.size(); ++k) {
        if (const auto ipid = model_.probe_compiled(compiled[k], clock))
          series[k].push_back(IpIdSample{clock, *ipid});
        clock += kProbeIntervalS;
      }
    probes_ += addrs.size() * static_cast<std::size_t>(kSamples);
  }
  clock_s_ += static_cast<double>(addrs.size()) * kSamples * kProbeIntervalS;

  struct Candidate {
    Ipv4 addr;
    double velocity;
    std::uint32_t slot;  // index into addrs/compiled
  };
  std::vector<Candidate> candidates;
  for (std::size_t k = 0; k < addrs.size(); ++k) {
    if (series[k].empty()) {  // never answered
      out.unresolved.push_back(addrs[k]);
      continue;
    }
    const double v = estimate_velocity(series[k].data(), series[k].size());
    if (v <= 0.0 || v > kRandomVelocityCutoff) {
      out.unresolved.push_back(addrs[k]);
      continue;
    }
    candidates.push_back(
        Candidate{addrs[k], v, static_cast<std::uint32_t>(k)});
  }

  // --- Stage 2: velocity sieve ---
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.velocity < b.velocity;
            });

  UnionFind uf(candidates.size());

  // --- Stage 3: corroboration per compatible pair ---
  //
  // Buffers reused across pairs and rounds: no allocation in the loop
  // that runs tens of millions of times at paper scale.
  std::vector<IpIdSample> series_a(static_cast<std::size_t>(kSamples));
  std::vector<IpIdSample> series_b(static_cast<std::size_t>(kSamples));
  std::vector<IpIdSample> merged(2 * static_cast<std::size_t>(kSamples));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      if (!velocities_compatible(candidates[i].velocity,
                                 candidates[j].velocity))
        break;  // sorted by velocity: later ones only diverge further
      if (uf.find(i) == uf.find(j)) continue;

      const IpIdModel::CompiledTarget& ca = compiled[candidates[i].slot];
      const IpIdModel::CompiledTarget& cb = compiled[candidates[j].slot];
      bool pass = true;
      for (int round = 0; round < kCorroborationRounds && pass; ++round) {
        // One interleaved {a, b} collection on the estimation stage's
        // schedule: a, b, a, b, ... one probe every kProbeIntervalS.
        std::size_t na = 0, nb = 0;
        double clock = clock_s_;
        for (int r = 0; r < kSamples; ++r) {
          if (const auto ipid = model_.probe_compiled(ca, clock))
            series_a[na++] = IpIdSample{clock, *ipid};
          clock += kProbeIntervalS;
          if (const auto ipid = model_.probe_compiled(cb, clock))
            series_b[nb++] = IpIdSample{clock, *ipid};
          clock += kProbeIntervalS;
        }
        // Rounds are spread far apart in (virtual) time: two distinct
        // counters that happen to be aligned now drift apart by
        // |rate_a - rate_b| * spacing and fail a later round. This is what
        // makes MIDAR's false-positive rate effectively zero.
        clock_s_ += kRoundSpacingS;
        probes_ += 2 * static_cast<std::size_t>(kSamples);
        pass = na > 0 && nb > 0 &&
               monotonic_bounds_test(series_a.data(), na, series_b.data(),
                                     nb, merged.data());
      }
      if (pass) uf.unite(i, j);
    }
  }

  // Materialise alias sets.
  std::unordered_map<std::size_t, std::size_t> root_to_set;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t root = uf.find(i);
    const auto [it, inserted] = root_to_set.try_emplace(root, out.sets.size());
    if (inserted) out.sets.emplace_back();
    out.sets[it->second].push_back(candidates[i].addr);
  }
  return out;
}

}  // namespace cfs
