// MIDAR-style alias-resolution pipeline.
//
// Stage 1 (estimation): probe each target on its own schedule, estimate
// its counter velocity, discard unresponsive / constant / randomised
// sources. Stage 2 (sieve): sort by velocity and only consider pairs whose
// velocities are compatible. Stage 3 (corroboration): run the monotonic
// bounds test on freshly collected interleaved samples for each candidate
// pair; passing pairs are merged with union-find into alias sets. Replies
// are screened as they arrive and computed only up to the first delta no
// acceptable velocity allows (delta_exceeds_any_budget), which fails the
// round exactly as the full test would; most pairs stop after one or two
// replies.
//
// The schedule is pure (MidarSchedule), so an address's velocity and a
// pair's verdict never change. AliasResolver memoises both across calls:
// a call tests only pairs with at least one new candidate, and alias sets
// are the connected components of the pass graph whatever the test order.
// probes_sent() counts every scheduled probe, including those whose
// replies a screened-out round never computes.
#pragma once

#include <unordered_map>
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

// When each probe is sent: a pure function of the seed and the address or
// pair the probe belongs to, never of what was probed before.
//   * Estimation: address a is probed kSamples times, kProbeIntervalS
//     apart, from estimation_start(a).
//   * Corroboration: round r of the pair {a, b} probes lo, hi, lo, hi, ...
//     (lo the lower address) 2 * kSamples times, kProbeIntervalS apart,
//     from round_start(a, b, r). Round r starts kRoundSpacingS * r plus an
//     offset below kRoundSpacingS / 2 after the pair's base time, so
//     consecutive rounds are at least kRoundSpacingS / 2 apart: two
//     distinct counters that happen to be aligned in one round drift apart
//     by |rate_a - rate_b| * gap and fail a later one. This is what makes
//     MIDAR's false-positive rate effectively zero.
// Estimation starts and pair base times are spread over one virtual day.
class MidarSchedule {
 public:
  static constexpr int kSamples = 12;
  static constexpr double kProbeIntervalS = 0.1;
  static constexpr int kCorroborationRounds = 3;
  static constexpr double kRoundSpacingS = 1200.0;

  explicit MidarSchedule(std::uint64_t seed);

  [[nodiscard]] double estimation_start(Ipv4 addr) const;
  // Symmetric in a and b.
  [[nodiscard]] double round_start(Ipv4 a, Ipv4 b, int round) const;

 private:
  std::uint64_t seed_;
};

// Minimal union-find used by the resolver (exposed for reuse/testing).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  std::size_t find(std::size_t x);
  void unite(std::size_t a, std::size_t b);
  // Appends singleton elements up to `n` in total.
  void grow(std::size_t n);
  [[nodiscard]] std::size_t size() const { return parent_.size(); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
};

class AliasResolver {
 public:
  AliasResolver(const Topology& topo, std::uint64_t seed);

  // Alias sets and unresolved addresses of `targets` (duplicates ignored),
  // always equal to a fresh resolver's answer on the same targets. Sets
  // are ordered by their first member, members by (velocity, address);
  // unresolved addresses keep target order. Work is memoised across calls
  // whose targets grow: when `targets` is not a superset of the previous
  // call's, the resolver starts over.
  [[nodiscard]] AliasSets resolve(const std::vector<Ipv4>& targets);

  [[nodiscard]] std::size_t probes_sent() const { return probes_; }

 private:
  struct Candidate {
    double velocity = 0.0;
    Ipv4 addr;
    std::uint32_t slot = 0;  // union-find element, in order of arrival
    IpIdModel::CompiledTarget target;
  };
  // Stage-3 reply buffers and work counters of one resolve call.
  struct Stage3;
  // Pure Stage-3 verdict for one compatible pair.
  [[nodiscard]] bool corroborate(const Candidate& x, const Candidate& y,
                                 Stage3& work);

  IpIdModel model_;
  MidarSchedule schedule_;
  std::size_t probes_ = 0;

  // Memo since the last start-over: every address seen, mapped to its
  // candidate slot or kUnresolved; the candidates in (velocity, address)
  // order; and the passing pairs' components over slots.
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};
  std::unordered_map<Ipv4, std::uint32_t> slot_of_;
  std::vector<Candidate> candidates_;
  UnionFind components_{0};
};

}  // namespace cfs
