#include "alias/ally.h"

namespace cfs {
namespace {

constexpr int kTrials = 3;              // repeated tests, all must agree
constexpr std::uint16_t kWindow = 220;  // max total IP-ID advance
constexpr double kProbeGapS = 0.01;     // back-to-back probe spacing
constexpr double kTrialGapS = 5.0;      // spacing between trials

}  // namespace

std::string_view ally_verdict_name(AllyVerdict verdict) {
  switch (verdict) {
    case AllyVerdict::Alias: return "alias";
    case AllyVerdict::NotAlias: return "not-alias";
    case AllyVerdict::Unresponsive: return "unresponsive";
  }
  return "?";
}

AllyResolver::AllyResolver(const Topology& topo, std::uint64_t seed)
    : model_(topo, seed) {}

AllyVerdict AllyResolver::test_pair(Ipv4 a, Ipv4 b) {
  for (int trial = 0; trial < kTrials; ++trial) {
    // Probe a, b, a in quick succession.
    const auto x1 = model_.probe(a, clock_s_);
    const auto y = model_.probe(b, clock_s_ + kProbeGapS);
    const auto x2 = model_.probe(a, clock_s_ + 2 * kProbeGapS);
    probes_ += 3;
    clock_s_ += kTrialGapS;
    if (!x1 || !y || !x2) return AllyVerdict::Unresponsive;

    // In-sequence check, modulo 16-bit wraparound.
    const std::uint16_t d1 = static_cast<std::uint16_t>(*y - *x1);
    const std::uint16_t d2 = static_cast<std::uint16_t>(*x2 - *y);
    const std::uint16_t total = static_cast<std::uint16_t>(*x2 - *x1);
    const bool in_sequence =
        total <= kWindow && d1 <= total && d2 <= total;
    if (!in_sequence) return AllyVerdict::NotAlias;
  }
  return AllyVerdict::Alias;
}

}  // namespace cfs
