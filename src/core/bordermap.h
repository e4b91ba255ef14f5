// Border-interface ownership correction in the style of MAP-IT / bdrmap
// (Marder & Smith, IMC 2016; Luckie et al., IMC 2016 — the line of work
// the paper's Section 7 cites through Motamedi et al.).
//
// A /30 numbered from one side makes the far router's ingress interface
// raw-map to the wrong AS, shifting the observed boundary one hop (the
// "phantom crossing" error). Alias resolution fixes it only when the far
// router answers IP-ID probes. Border mapping fixes it from the traceroute
// corpus alone: an interface X that raw-maps to A but whose observed
// successors consistently map into B — while its predecessors stay in A
// and X is never seen continuing inside A — is the far end of an A-numbered
// link, so X's router belongs to B.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "data/ip2asn.h"
#include "traceroute/engine.h"

namespace cfs {

struct BorderMapConfig {
  std::size_t min_observations = 2;  // successor samples needed
  double majority = 0.75;            // successor share required for B
};

class BorderMapper {
 public:
  BorderMapper(const IpToAsnService& ip2asn,
               const BorderMapConfig& config = {});

  // Accumulates hop-adjacency evidence from a trace.
  void ingest(const TraceResult& trace);
  void ingest_all(const std::vector<TraceResult>& traces);

  // Interfaces whose router provably belongs to a different AS than the
  // raw longest-prefix mapping says, with the corrected owner.
  [[nodiscard]] std::unordered_map<Ipv4, Asn> corrections() const;

  [[nodiscard]] std::size_t interfaces_seen() const { return stats_.size(); }

 private:
  struct Evidence {
    std::unordered_map<std::uint32_t, std::size_t> successor_as;
    std::unordered_map<std::uint32_t, std::size_t> predecessor_as;
    // Successor hops on IXP peering LANs: the interface's router fronts an
    // exchange, which is strong evidence it is a genuine border router of
    // its raw AS — corrections are suppressed (missing a repair is cheaper
    // than inventing a wrong owner).
    std::size_t ixp_successors = 0;
  };

  // A hop as ingest reads it: asn is set only for a responding non-IXP hop
  // with a raw mapping.
  struct HopClass {
    bool responded = false;
    bool ixp = false;
    std::optional<Asn> asn;
  };

  const IpToAsnService& ip2asn_;
  BorderMapConfig config_;
  std::unordered_map<Ipv4, Evidence> stats_;
  std::vector<HopClass> hop_class_;  // ingest scratch, one entry per hop
};

}  // namespace cfs
