// Validation harness (paper Section 6).
//
// Scores a CfsReport against four emulated ground-truth sources, each with
// the coverage limits of its real counterpart:
//   direct feedback   — cooperating operators confirm their own interfaces;
//   BGP communities   — ingress-tagging transit networks, decoded through
//                       the operator-published dictionary, reachable only
//                       where a BGP-capable looking glass exists;
//   DNS records       — facility-encoding hostnames of operators whose
//                       conventions are documented and current;
//   IXP websites      — member-port tables published by a few exchanges.
// The harness also exposes the simulator's omniscient oracle (exact truth
// for every interface and link), which the paper could not have — it is
// what lets the benchmarks report true accuracy alongside Figure 9's
// source-limited view.
#pragma once

#include <map>

#include "bgp/communities.h"
#include "bgp/looking_glass.h"
#include "core/report.h"
#include "data/dns.h"
#include "data/websites.h"

namespace cfs {

enum class ValidationSource {
  DirectFeedback,
  BgpCommunities,
  DnsRecords,
  IxpWebsites,
};
std::string_view validation_source_name(ValidationSource source);

// Link-type buckets used in Figure 9.
enum class ValidationLinkType {
  CrossConnect,
  PublicLocal,
  Remote,     // public remote + private remote
  Tethering,
};
std::string_view validation_link_type_name(ValidationLinkType type);

struct SourceAccuracy {
  std::size_t correct = 0;
  std::size_t total = 0;
  std::size_t city_correct = 0;  // wrong facility but right metro

  [[nodiscard]] double accuracy() const {
    return total == 0 ? 0.0 : static_cast<double>(correct) / total;
  }
  [[nodiscard]] double city_accuracy() const {
    return total == 0 ? 0.0
                      : static_cast<double>(correct + city_correct) / total;
  }
};

// Alias sets scored against each address's true router. A pair is two
// addresses of one reported set (true when they share a router); a missed
// pair shares a router but not a set, over every address the resolver
// was given (sets and unresolved). Addresses the topology does not know
// are skipped.
struct AliasAccuracy {
  std::size_t true_pairs = 0;
  std::size_t false_pairs = 0;
  std::size_t missed_pairs = 0;
  std::size_t wrong_sets = 0;   // sets spanning more than one router
  std::size_t multi_sets = 0;   // sets of two or more addresses
  // Addresses of Random-IP-ID routers, by where the resolver put them.
  std::size_t random_unresolved = 0;
  std::size_t random_in_sets = 0;

  [[nodiscard]] double precision() const {
    const std::size_t n = true_pairs + false_pairs;
    return n == 0 ? 1.0 : static_cast<double>(true_pairs) / n;
  }
  [[nodiscard]] double recall() const {
    const std::size_t n = true_pairs + missed_pairs;
    return n == 0 ? 1.0 : static_cast<double>(true_pairs) / n;
  }
};

class ValidationHarness {
 public:
  struct Config {
    // ASes that responded to the "direct feedback" request.
    std::vector<Asn> cooperating_operators;
  };

  ValidationHarness(const Topology& topo, const CommunityRegistry& communities,
                    const LookingGlassDirectory& lgs, const DnsNames& dns,
                    const DropParser& drop, const IxpWebsiteSource& ixp_sites,
                    Config config);

  // --- ground truth (oracle) ---
  [[nodiscard]] std::optional<FacilityId> true_facility(Ipv4 addr) const;
  [[nodiscard]] InterconnectionType true_link_type(
      const PeeringObservation& obs) const;

  // --- Figure 9: accuracy per source per link-type bucket ---
  using Breakdown =
      std::map<std::pair<ValidationSource, ValidationLinkType>,
               SourceAccuracy>;
  [[nodiscard]] Breakdown validate(const CfsReport& report) const;

  // --- oracle scoring (every resolved interface) ---
  [[nodiscard]] SourceAccuracy oracle_interface_accuracy(
      const CfsReport& report) const;
  [[nodiscard]] AliasAccuracy oracle_alias_accuracy(
      const CfsReport& report) const;
  // Confusion of inferred vs true link type.
  [[nodiscard]] std::map<std::pair<InterconnectionType, InterconnectionType>,
                         std::size_t>
  link_type_confusion(const CfsReport& report) const;

 private:
  [[nodiscard]] static ValidationLinkType bucket(InterconnectionType type);
  void score(SourceAccuracy& acc, FacilityId inferred,
             FacilityId reference) const;

  const Topology& topo_;
  const CommunityRegistry& communities_;
  const LookingGlassDirectory& lgs_;
  const DnsNames& dns_;
  const DropParser& drop_;
  const IxpWebsiteSource& ixp_sites_;
  Config config_;
};

}  // namespace cfs
