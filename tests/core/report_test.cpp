#include "core/report.h"

#include <gtest/gtest.h>

namespace cfs {
namespace {

Ipv4 ip(std::uint32_t v) { return Ipv4(v); }

LinkInference link(PeeringKind kind, Ipv4 near, Asn near_as, Ipv4 far,
                   Asn far_as, IxpId ixp = IxpId::invalid()) {
  LinkInference out;
  out.obs.kind = kind;
  out.obs.near_addr = near;
  out.obs.near_as = near_as;
  out.obs.far_addr = far;
  out.obs.far_as = far_as;
  out.obs.ixp = ixp;
  return out;
}

TEST(Report, EmptyReportCounters) {
  const CfsReport report;
  EXPECT_EQ(report.observed_interfaces(), 0u);
  EXPECT_EQ(report.resolved_interfaces(), 0u);
  EXPECT_EQ(report.resolved_fraction(), 0.0);
  EXPECT_EQ(report.no_data_interfaces(), 0u);
  EXPECT_EQ(report.find(ip(1)), nullptr);
  const auto stats = report.router_stats();
  EXPECT_EQ(stats.routers, 0u);
}

TEST(Report, ResolutionCounting) {
  CfsReport report;
  InterfaceInference resolved;
  resolved.addr = ip(1);
  resolved.has_constraint = true;
  resolved.candidates = {FacilityId(3)};
  report.interfaces.emplace(resolved.addr, resolved);

  InterfaceInference open_set;
  open_set.addr = ip(2);
  open_set.has_constraint = true;
  open_set.candidates = {FacilityId(3), FacilityId(4)};
  report.interfaces.emplace(open_set.addr, open_set);

  InterfaceInference no_data;
  no_data.addr = ip(3);
  report.interfaces.emplace(no_data.addr, no_data);

  EXPECT_EQ(report.observed_interfaces(), 3u);
  EXPECT_EQ(report.resolved_interfaces(), 1u);
  EXPECT_NEAR(report.resolved_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(report.no_data_interfaces(), 1u);
  ASSERT_NE(report.find(ip(1)), nullptr);
  EXPECT_TRUE(report.find(ip(1))->resolved());
}

TEST(Report, MultiRoleViaAliasSets) {
  CfsReport report;
  // One router (alias set) with a public interface (1) and a private one (2).
  report.aliases.sets.push_back({ip(1), ip(2)});
  report.links.push_back(
      link(PeeringKind::Public, ip(1), Asn(10), ip(100), Asn(20), IxpId(0)));
  report.links.push_back(
      link(PeeringKind::Private, ip(2), Asn(10), ip(200), Asn(30)));

  const auto stats = report.router_stats();
  // Router for set {1,2}, plus singleton far ends 100 and 200.
  EXPECT_EQ(stats.routers, 3u);
  EXPECT_EQ(stats.multi_role, 1u);
  EXPECT_EQ(stats.multi_ixp, 0u);
}

TEST(Report, MultiIxpRouters) {
  CfsReport report;
  report.aliases.sets.push_back({ip(1), ip(2)});
  report.links.push_back(
      link(PeeringKind::Public, ip(1), Asn(10), ip(100), Asn(20), IxpId(0)));
  report.links.push_back(
      link(PeeringKind::Public, ip(2), Asn(10), ip(200), Asn(30), IxpId(1)));

  const auto stats = report.router_stats();
  EXPECT_EQ(stats.multi_ixp, 1u);
  EXPECT_EQ(stats.multi_role, 0u);
}

TEST(Report, SingletonInterfacesCountAsRouters) {
  CfsReport report;  // no alias sets at all
  report.links.push_back(
      link(PeeringKind::Private, ip(1), Asn(10), ip(2), Asn(20)));
  const auto stats = report.router_stats();
  EXPECT_EQ(stats.routers, 2u);
  EXPECT_EQ(stats.multi_role, 0u);
}

TEST(Report, FarSideOfPublicLinkCountsAsIxpRouter) {
  CfsReport report;
  report.links.push_back(
      link(PeeringKind::Public, ip(1), Asn(10), ip(100), Asn(20), IxpId(7)));
  // The far LAN interface (100) is on a router with a public role.
  report.links.push_back(
      link(PeeringKind::Private, ip(100), Asn(20), ip(3), Asn(30)));
  const auto stats = report.router_stats();
  EXPECT_EQ(stats.multi_role, 1u);  // router of 100: public + private
}

}  // namespace
}  // namespace cfs
