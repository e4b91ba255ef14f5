// Step 1 of CFS: identify public and private peering crossings in
// traceroute paths (paper Section 4.2).
//
// A hop sequence (IP_A, IP_e, IP_B) with IP_e inside an IXP peering LAN is
// a public peering between the AS of IP_A and the AS of IP_e's router; an
// adjacent pair (IP_A, IP_B) mapping to different ASes is a private
// interconnection. Paths where the boundary hop is unresponsive or
// unresolvable are discarded, exactly as in the paper.
//
// IP-to-ASN mapping is corrected with alias-resolution majority voting
// (Section 4.1): interfaces grouped into one router inherit the ASN that
// the majority of the router's interfaces map to, which repairs the
// point-to-point /30s numbered out of the neighbor's address space.
#pragma once

#include <unordered_map>

#include "alias/midar.h"
#include "core/types.h"
#include "data/ip2asn.h"
#include "traceroute/engine.h"

namespace cfs {

// ASN assignment for observed interfaces: raw longest-prefix mapping plus
// alias-majority correction.
class InterfaceAsnMap {
 public:
  explicit InterfaceAsnMap(const IpToAsnService& ip2asn);

  // Applies majority voting over each alias set.
  void apply_alias_correction(const AliasSets& aliases);

  // Applies border-mapping corrections (core/bordermap.h); alias-derived
  // corrections take precedence when both exist for an address.
  void apply_border_corrections(
      const std::unordered_map<Ipv4, Asn>& corrections);

  // Mapped ASN (corrected when a correction exists); nullopt = unresolved.
  [[nodiscard]] std::optional<Asn> asn_of(Ipv4 addr) const;

  [[nodiscard]] std::size_t corrections() const { return corrected_.size(); }

  // Addresses whose mapping changed since the last call; clears the log.
  // A cached trace classification is still valid when none of the trace's
  // responded hop addresses appear in it (core/trace_cache.h).
  [[nodiscard]] std::vector<Ipv4> take_changed();

  // The full correction table (address -> corrected owner). The stream
  // engine diffs two epochs' tables to find traces needing reclassification.
  [[nodiscard]] const std::unordered_map<Ipv4, Asn>& corrected_map() const {
    return corrected_;
  }

 private:
  const IpToAsnService& ip2asn_;
  std::unordered_map<Ipv4, Asn> corrected_;
  std::vector<Ipv4> changed_;
};

class HopClassifier {
 public:
  HopClassifier(const IpToAsnService& ip2asn, const InterfaceAsnMap& map);

  // Extracts every peering crossing from one traceroute.
  [[nodiscard]] std::vector<PeeringObservation> classify(
      const TraceResult& trace) const;

  // Batch variant with per-(near,far) RTT minimisation across traces.
  [[nodiscard]] std::vector<PeeringObservation> classify_all(
      const std::vector<TraceResult>& traces) const;

 private:
  const IpToAsnService& ip2asn_;
  const InterfaceAsnMap& map_;
};

}  // namespace cfs
