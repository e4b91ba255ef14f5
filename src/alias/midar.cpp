#include "alias/midar.h"

#include <algorithm>
#include <array>
#include <utility>

#include "util/trace.h"

namespace cfs {
namespace {

constexpr double kHorizonS = 86400.0;  // spread of starts and base times

}  // namespace

MidarSchedule::MidarSchedule(std::uint64_t seed)
    : seed_(mix64(seed ^ 0x5ced01eULL)) {}

double MidarSchedule::estimation_start(Ipv4 addr) const {
  return unit_interval(mix64(seed_ ^ addr.value())) * kHorizonS;
}

double MidarSchedule::round_start(Ipv4 a, Ipv4 b, int round) const {
  if (b < a) std::swap(a, b);
  const std::uint64_t pair = mix64(
      seed_ ^ mix64((std::uint64_t{a.value()} << 32) | b.value()));
  const double offset =
      unit_interval(mix64(pair ^ static_cast<std::uint64_t>(round + 1)));
  return unit_interval(pair) * kHorizonS +
         kRoundSpacingS * (static_cast<double>(round) + offset / 2.0);
}

UnionFind::UnionFind(std::size_t n) { grow(n); }

void UnionFind::grow(std::size_t n) {
  for (std::size_t i = parent_.size(); i < n; ++i) parent_.push_back(i);
  rank_.resize(parent_.size(), 0);
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
    : model_(topo, seed), schedule_(seed) {}

struct AliasResolver::Stage3 {
  static constexpr int kRoundProbes = 2 * MidarSchedule::kSamples;
  std::array<IpIdSample, MidarSchedule::kSamples> series_a;
  std::array<IpIdSample, MidarSchedule::kSamples> series_b;
  std::array<IpIdSample, kRoundProbes> merged;
  std::uint64_t pair_tests = 0;
  std::uint64_t full_tests = 0;
};

bool AliasResolver::corroborate(const Candidate& x, const Candidate& y,
                                Stage3& work) {
  constexpr int kRoundProbes = Stage3::kRoundProbes;
  // Side 0 is the lower address: probe p of a round goes to side p & 1.
  const bool x_low = x.addr < y.addr;
  const IpIdModel::CompiledTarget* side[2] = {
      x_low ? &x.target : &y.target, x_low ? &y.target : &x.target};
  IpIdSample* const collected[2] = {work.series_a.data(),
                                    work.series_b.data()};
  // Each round's replies arrive in time order, the order
  // monotonic_bounds_test merges them in, and each one is screened against
  // the previous present reply: at the first delta that no acceptable
  // velocity allows the round has failed, and its remaining replies are
  // never computed. Only rounds that pass the screen run the full test.
  for (int round = 0; round < MidarSchedule::kCorroborationRounds; ++round) {
    probes_ += static_cast<std::size_t>(kRoundProbes);
    const double start = schedule_.round_start(x.addr, y.addr, round);
    std::size_t n[2] = {0, 0};
    const IpIdSample* prev = nullptr;
    for (int p = 0; p < kRoundProbes; ++p) {
      const int s = p & 1;
      const double t = start + p * MidarSchedule::kProbeIntervalS;
      const auto ipid = IpIdModel::probe_compiled(*side[s], t);
      if (!ipid) continue;
      IpIdSample* const reply = collected[s] + n[s]++;
      *reply = IpIdSample{t, *ipid};
      if (prev != nullptr &&
          delta_exceeds_any_budget(
              reply->t_s - prev->t_s,
              static_cast<std::uint16_t>(reply->ipid - prev->ipid)))
        return false;
      prev = reply;
    }
    if (n[0] == 0 || n[1] == 0) return false;
    ++work.full_tests;
    if (!monotonic_bounds_test(work.series_a.data(), n[0],
                               work.series_b.data(), n[1], work.merged.data()))
      return false;
  }
  return true;
}

AliasSets AliasResolver::resolve(const std::vector<Ipv4>& targets) {
  TraceSpan estimate_span("alias.estimate");
  // Deduplicate input while preserving order, counting remembered ones.
  std::vector<Ipv4> addrs;
  std::size_t remembered = 0;
  {
    std::unordered_map<Ipv4, bool> seen;
    for (const Ipv4 a : targets)
      if (!std::exchange(seen[a], true)) {
        addrs.push_back(a);
        remembered += slot_of_.contains(a) ? 1 : 0;
      }
  }
  if (remembered != slot_of_.size()) {  // not a superset: start over
    slot_of_.clear();
    candidates_.clear();
    components_ = UnionFind(0);
  }

  // --- Stage 1: estimation, for new addresses only ---
  const auto first_new_slot = static_cast<std::uint32_t>(components_.size());
  std::vector<Candidate> fresh;
  std::size_t new_targets = 0;
  std::array<IpIdSample, MidarSchedule::kSamples> series;
  for (const Ipv4 addr : addrs) {
    const auto [it, inserted] = slot_of_.try_emplace(addr, kUnresolved);
    if (!inserted) continue;
    ++new_targets;
    const IpIdModel::CompiledTarget target = model_.compile(addr);
    const double start = schedule_.estimation_start(addr);
    std::size_t n = 0;
    for (int k = 0; k < MidarSchedule::kSamples; ++k) {
      const double t = start + k * MidarSchedule::kProbeIntervalS;
      if (const auto ipid = IpIdModel::probe_compiled(target, t))
        series[n++] = IpIdSample{t, *ipid};
    }
    const double v = estimate_velocity(series.data(), n);  // < 0 if n < 3
    if (v <= 0.0 || v > kRandomVelocityCutoff) continue;
    it->second =
        first_new_slot + static_cast<std::uint32_t>(fresh.size());
    fresh.push_back(Candidate{v, addr, it->second, target});
  }
  probes_ += new_targets * static_cast<std::size_t>(MidarSchedule::kSamples);
  estimate_span.arg("targets", addrs.size());
  estimate_span.arg("new_targets", new_targets);
  estimate_span.stop();

  TraceSpan corroborate_span("alias.corroborate");
  // --- Stage 2: velocity sieve over old and new candidates together ---
  const auto by_sieve = [](const Candidate& a, const Candidate& b) {
    return a.velocity < b.velocity ||
           (a.velocity == b.velocity && a.addr < b.addr);
  };
  std::sort(fresh.begin(), fresh.end(), by_sieve);
  const std::size_t old_count = candidates_.size();
  candidates_.insert(candidates_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(candidates_.begin(),
                     candidates_.begin() + static_cast<std::ptrdiff_t>(old_count),
                     candidates_.end(), by_sieve);
  components_.grow(first_new_slot + fresh.size());

  // --- Stage 3: corroboration of every compatible pair with a new side ---
  //
  // Sorted by velocity, so a candidate's compatible partners are a
  // contiguous window around it. A new candidate tests its whole window to
  // the right and the old candidates to its left; a new partner on the
  // left tested the pair from its own side. A pair already in one
  // component is skipped: its verdict could not change the components.
  Stage3 work;
  const auto is_new = [&](std::size_t i) {
    return candidates_[i].slot >= first_new_slot;
  };
  const auto test = [&](std::size_t i, std::size_t j) {
    const Candidate& a = candidates_[i];
    const Candidate& b = candidates_[j];
    if (components_.find(a.slot) == components_.find(b.slot)) return;
    ++work.pair_tests;
    if (corroborate(a, b, work)) components_.unite(a.slot, b.slot);
  };
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (!is_new(i)) continue;
    const double v = candidates_[i].velocity;
    for (std::size_t j = i + 1; j < candidates_.size() &&
                                velocities_compatible(v, candidates_[j].velocity);
         ++j)
      test(i, j);
    for (std::size_t j = i; j-- > 0 &&
                            velocities_compatible(candidates_[j].velocity, v);)
      if (!is_new(j)) test(j, i);
  }
  corroborate_span.arg("candidates", candidates_.size());
  corroborate_span.arg("new_candidates", fresh.size());
  corroborate_span.arg("pairs", work.pair_tests);
  corroborate_span.arg("full_tests", work.full_tests);
  corroborate_span.stop();
  Trace::counter("alias.pair_tests", work.pair_tests);
  Trace::counter("alias.full_tests", work.full_tests);

  // Materialise alias sets in sieve order.
  AliasSets out;
  std::unordered_map<std::size_t, std::size_t> root_to_set;
  for (const Candidate& c : candidates_) {
    const std::size_t root = components_.find(c.slot);
    const auto [it, inserted] = root_to_set.try_emplace(root, out.sets.size());
    if (inserted) out.sets.emplace_back();
    out.sets[it->second].push_back(c.addr);
  }
  for (const Ipv4 addr : addrs)
    if (slot_of_.at(addr) == kUnresolved) out.unresolved.push_back(addr);
  return out;
}

}  // namespace cfs
