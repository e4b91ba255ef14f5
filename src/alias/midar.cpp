#include "alias/midar.h"

#include <algorithm>
#include <unordered_map>

#include "util/trace.h"

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

  TraceSpan estimate_span("alias.estimate");
  // Deduplicate input while preserving order.
  std::vector<Ipv4> addrs;
  {
    std::unordered_map<Ipv4, bool> seen;
    for (const Ipv4 a : targets)
      if (!std::exchange(seen[a], true)) addrs.push_back(a);
  }

  // Compile every target once: the per-probe interface/router/counter
  // hash lookups move out of the probing loops (Stage 3 schedules
  // O(pairs * rounds * samples) probes).
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
    IpIdModel::CompiledTarget target;  // Stage 3 probes in sieve order
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
    candidates.push_back(Candidate{addrs[k], v, compiled[k]});
  }
  estimate_span.arg("targets", addrs.size());
  estimate_span.stop();

  TraceSpan corroborate_span("alias.corroborate");
  // --- Stage 2: velocity sieve ---
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.velocity < b.velocity;
            });

  UnionFind uf(candidates.size());

  // --- Stage 3: corroboration per compatible pair ---
  //
  // Each round probes a, b, a, b, ... on the estimation stage's schedule.
  // The clock strictly increases, so present replies arrive in the order
  // monotonic_bounds_test merges them in, and each one is screened against
  // the previous present reply as it arrives: at the first delta that no
  // acceptable velocity allows (delta_exceeds_any_budget) the round has
  // failed, and its remaining replies are never computed. Only rounds that
  // pass the screen run the full test. A screened-out round still counts
  // and clocks all its probes and skips its unread Random replies, so
  // verdicts, probe counts and later draws match a full collection.
  //
  // Buffers reused across pairs and rounds: no allocation in the loop
  // that runs tens of millions of times at paper scale.
  constexpr int kRoundProbes = 2 * kSamples;
  std::vector<IpIdSample> series_a(static_cast<std::size_t>(kSamples));
  std::vector<IpIdSample> series_b(static_cast<std::size_t>(kSamples));
  std::vector<IpIdSample> merged(static_cast<std::size_t>(kRoundProbes));
  std::uint64_t pair_tests = 0;
  std::uint64_t full_tests = 0;
  // Sorted by velocity, so i's compatible partners are i+1 .. end-1, and
  // end never moves back as i grows.
  std::size_t end = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    end = std::max(end, i + 1);
    while (end < candidates.size() &&
           velocities_compatible(candidates[i].velocity,
                                 candidates[end].velocity))
      ++end;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (uf.find(i) == uf.find(j)) continue;
      ++pair_tests;

      // Side 0 is a, side 1 is b: probe p of a round goes to side p & 1.
      const IpIdModel::CompiledTarget* side[2] = {
          &candidates[i].target, &candidates[j].target};
      IpIdSample* const collected[2] = {series_a.data(), series_b.data()};
      bool pass = true;
      for (int round = 0; round < kCorroborationRounds && pass; ++round) {
        std::size_t n[2] = {0, 0};
        const IpIdSample* prev = nullptr;
        double clock = clock_s_;
        int p = 0;
        for (; p < kRoundProbes; ++p, clock += kProbeIntervalS) {
          const int s = p & 1;
          const auto ipid = model_.probe_compiled(*side[s], clock);
          if (!ipid) continue;
          IpIdSample* const reply = collected[s] + n[s]++;
          *reply = IpIdSample{clock, *ipid};
          if (prev != nullptr &&
              delta_exceeds_any_budget(
                  reply->t_s - prev->t_s,
                  static_cast<std::uint16_t>(reply->ipid - prev->ipid)))
            break;
          prev = reply;
        }
        const bool screened_out = p < kRoundProbes;
        if (screened_out) {
          // Probes p+1 .. kRoundProbes-1 go unread, alternating sides
          // from side (p + 1) & 1.
          const int unread = kRoundProbes - 1 - p;
          const auto random = [&](int s) {
            return side[s]->behaviour == IpIdBehaviour::Random;
          };
          model_.skip_random_replies(
              static_cast<std::size_t>(
                  (random((p + 1) & 1) ? (unread + 1) / 2 : 0) +
                  (random(p & 1) ? unread / 2 : 0)));
        }
        // Rounds are spread far apart in (virtual) time: two distinct
        // counters that happen to be aligned now drift apart by
        // |rate_a - rate_b| * spacing and fail a later round. This is what
        // makes MIDAR's false-positive rate effectively zero.
        clock_s_ += kRoundSpacingS;
        probes_ += static_cast<std::size_t>(kRoundProbes);
        pass = !screened_out && n[0] > 0 && n[1] > 0;
        if (pass) {
          ++full_tests;
          pass = monotonic_bounds_test(series_a.data(), n[0],
                                       series_b.data(), n[1], merged.data());
        }
      }
      if (pass) uf.unite(i, j);
    }
  }
  corroborate_span.arg("candidates", candidates.size());
  corroborate_span.arg("pairs", pair_tests);
  corroborate_span.arg("full_tests", full_tests);
  corroborate_span.stop();
  Trace::counter("alias.pair_tests", pair_tests);
  Trace::counter("alias.full_tests", full_tests);

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
