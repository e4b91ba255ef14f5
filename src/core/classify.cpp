#include "core/classify.h"

#include <algorithm>
#include <map>

namespace cfs {

std::string_view interconnection_type_name(InterconnectionType type) {
  switch (type) {
    case InterconnectionType::PublicLocal: return "public local";
    case InterconnectionType::PublicRemote: return "public remote";
    case InterconnectionType::PrivateCrossConnect: return "cross-connect";
    case InterconnectionType::PrivateTethering: return "tethering";
    case InterconnectionType::PrivateRemote: return "private remote";
    case InterconnectionType::Unknown: return "unknown";
  }
  return "?";
}

InterfaceAsnMap::InterfaceAsnMap(const IpToAsnService& ip2asn)
    : ip2asn_(ip2asn) {}

void InterfaceAsnMap::apply_alias_correction(const AliasSets& aliases) {
  for (const auto& set : aliases.sets) {
    if (set.size() < 2) continue;
    // Tally raw mappings across the router's interfaces.
    std::map<std::uint32_t, std::size_t> votes;
    for (const Ipv4 addr : set)
      if (const auto asn = ip2asn_.lookup(addr)) ++votes[asn->value];
    if (votes.empty()) continue;
    const auto majority = std::max_element(
        votes.begin(), votes.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    // Only a strict majority is trustworthy (Chang et al. heuristic).
    if (majority->second * 2 <= set.size()) continue;
    const Asn winner(majority->first);
    for (const Ipv4 addr : set) {
      const auto raw = ip2asn_.lookup(addr);
      if ((!raw || *raw != winner) && corrected_.emplace(addr, winner).second)
        changed_.push_back(addr);
    }
  }
}

void InterfaceAsnMap::apply_border_corrections(
    const std::unordered_map<Ipv4, Asn>& corrections) {
  for (const auto& [addr, asn] : corrections)
    if (corrected_.try_emplace(addr, asn).second) changed_.push_back(addr);
}

std::vector<Ipv4> InterfaceAsnMap::take_changed() {
  std::vector<Ipv4> out;
  out.swap(changed_);
  return out;
}

std::optional<Asn> InterfaceAsnMap::asn_of(Ipv4 addr) const {
  const auto it = corrected_.find(addr);
  if (it != corrected_.end()) return it->second;
  return ip2asn_.lookup(addr);
}

HopClassifier::HopClassifier(const IpToAsnService& ip2asn,
                             const InterfaceAsnMap& map)
    : ip2asn_(ip2asn), map_(map) {}

std::vector<PeeringObservation> HopClassifier::classify(
    const TraceResult& trace) const {
  std::vector<PeeringObservation> out;
  const auto& hops = trace.hops;

  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    // Both hops of a candidate boundary must be consecutive TTLs and
    // responsive, otherwise the crossing is ambiguous and discarded.
    if (!hops[i].responded || !hops[i + 1].responded) continue;

    const auto ixp_here = ip2asn_.ixp_of(hops[i].address);
    const auto ixp_next = ip2asn_.ixp_of(hops[i + 1].address);

    if (!ixp_here && ixp_next) {
      // (IP_A, IP_e, IP_B): public peering over the IXP owning IP_e.
      const auto near_as = map_.asn_of(hops[i].address);
      if (!near_as) continue;
      // Far member ASN: from the hop after the LAN address when visible,
      // else from the alias-corrected mapping of the LAN interface itself.
      std::optional<Asn> far_as;
      if (i + 2 < hops.size() && hops[i + 2].responded)
        far_as = map_.asn_of(hops[i + 2].address);
      if (!far_as) far_as = map_.asn_of(hops[i + 1].address);
      if (!far_as || *far_as == *near_as) continue;

      PeeringObservation obs;
      obs.kind = PeeringKind::Public;
      obs.vp = trace.vp;
      obs.near_addr = hops[i].address;
      obs.near_as = *near_as;
      obs.far_addr = hops[i + 1].address;
      obs.far_as = *far_as;
      obs.ixp = *ixp_next;
      obs.near_rtt_ms = hops[i].rtt_ms;
      obs.far_rtt_ms = hops[i + 1].rtt_ms;
      out.push_back(obs);
      continue;
    }

    if (!ixp_here && !ixp_next) {
      // (IP_A, IP_B): private interconnection when the ASes differ.
      const auto near_as = map_.asn_of(hops[i].address);
      const auto far_as = map_.asn_of(hops[i + 1].address);
      if (!near_as || !far_as || *near_as == *far_as) continue;

      PeeringObservation obs;
      obs.kind = PeeringKind::Private;
      obs.vp = trace.vp;
      obs.near_addr = hops[i].address;
      obs.near_as = *near_as;
      obs.far_addr = hops[i + 1].address;
      obs.far_as = *far_as;
      obs.near_rtt_ms = hops[i].rtt_ms;
      obs.far_rtt_ms = hops[i + 1].rtt_ms;
      out.push_back(obs);
    }
  }
  return out;
}

std::vector<PeeringObservation> HopClassifier::classify_all(
    const std::vector<TraceResult>& traces) const {
  // Merge repeated observations of the same crossing, keeping minimum RTTs
  // (the paper repeats measurements to dodge transient congestion).
  std::map<std::pair<Ipv4, Ipv4>, PeeringObservation> merged;
  for (const TraceResult& trace : traces) {
    for (const PeeringObservation& obs : classify(trace)) {
      const auto key = std::make_pair(obs.near_addr, obs.far_addr);
      const auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, obs);
      } else {
        it->second.near_rtt_ms = std::min(it->second.near_rtt_ms,
                                          obs.near_rtt_ms);
        it->second.far_rtt_ms = std::min(it->second.far_rtt_ms,
                                         obs.far_rtt_ms);
      }
    }
  }
  std::vector<PeeringObservation> out;
  out.reserve(merged.size());
  for (auto& [key, obs] : merged) out.push_back(obs);
  return out;
}

}  // namespace cfs
