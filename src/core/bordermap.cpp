#include "core/bordermap.h"

namespace cfs {

BorderMapper::BorderMapper(const IpToAsnService& ip2asn,
                           const BorderMapConfig& config)
    : ip2asn_(ip2asn), config_(config) {}

void BorderMapper::ingest(const TraceResult& trace) {
  const auto& hops = trace.hops;
  // One IXP test and one raw lookup per hop; the loop below reads each
  // hop's class up to three times (as itself, successor and predecessor).
  hop_class_.assign(hops.size(), HopClass{});
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (!hops[i].responded) continue;
    HopClass& c = hop_class_[i];
    c.responded = true;
    c.ixp = ip2asn_.ixp_of(hops[i].address).has_value();
    if (!c.ixp) c.asn = ip2asn_.lookup(hops[i].address);
  }
  for (std::size_t i = 0; i < hops.size(); ++i) {
    // IXP LAN addresses are handled by the public-peering classifier.
    if (!hop_class_[i].responded || hop_class_[i].ixp) continue;
    Evidence& evidence = stats_[hops[i].address];

    if (i + 1 < hops.size() && hop_class_[i + 1].responded) {
      const HopClass& succ = hop_class_[i + 1];
      if (succ.ixp) {
        ++evidence.ixp_successors;
      } else if (succ.asn) {
        ++evidence.successor_as[succ.asn->value];
      }
    }
    if (i > 0 && hop_class_[i - 1].asn)
      ++evidence.predecessor_as[hop_class_[i - 1].asn->value];
  }
}

void BorderMapper::ingest_all(const std::vector<TraceResult>& traces) {
  for (const TraceResult& trace : traces) ingest(trace);
}

std::unordered_map<Ipv4, Asn> BorderMapper::corrections() const {
  std::unordered_map<Ipv4, Asn> out;
  for (const auto& [addr, evidence] : stats_) {
    const auto raw = ip2asn_.lookup(addr);
    if (!raw) continue;

    std::size_t total = 0;
    std::size_t own = 0;  // successors staying in the raw AS
    std::uint32_t best_as = 0;
    std::size_t best_count = 0;
    for (const auto& [asn, count] : evidence.successor_as) {
      total += count;
      if (asn == raw->value) own += count;
      if (asn != raw->value && count > best_count) {
        best_count = count;
        best_as = asn;
      }
    }
    if (total < config_.min_observations) continue;
    // X continuing inside its raw AS — or fronting an IXP — means X really
    // is an internal or genuine border interface: never correct those.
    if (own > 0 || evidence.ixp_successors > 0) continue;
    if (static_cast<double>(best_count) / static_cast<double>(total) <
        config_.majority)
      continue;

    // Predecessors must stay in the raw AS — that is what makes X the far
    // end of a subnet numbered from the near side, rather than an address
    // block delegated wholesale to another network.
    std::size_t pred_total = 0;
    std::size_t pred_raw = 0;
    for (const auto& [asn, count] : evidence.predecessor_as) {
      pred_total += count;
      if (asn == raw->value) pred_raw += count;
    }
    if (pred_total == 0 ||
        static_cast<double>(pred_raw) / static_cast<double>(pred_total) <
            config_.majority)
      continue;

    out.emplace(addr, Asn(best_as));
  }
  return out;
}

}  // namespace cfs
