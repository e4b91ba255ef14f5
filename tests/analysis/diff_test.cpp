#include "analysis/diff.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.h"

namespace cfs {
namespace {

Ipv4 ip(std::uint32_t v) { return Ipv4(v); }

InterfaceInference resolved_iface(Ipv4 addr, FacilityId fac) {
  InterfaceInference inf;
  inf.addr = addr;
  inf.has_constraint = true;
  inf.candidates = {fac};
  return inf;
}

InterfaceInference open_iface(Ipv4 addr) {
  InterfaceInference inf;
  inf.addr = addr;
  inf.has_constraint = true;
  inf.candidates = {FacilityId(1), FacilityId(2)};
  return inf;
}

LinkInference plain_link(Ipv4 near, Ipv4 far, InterconnectionType type) {
  LinkInference link;
  link.obs.near_addr = near;
  link.obs.far_addr = far;
  link.type = type;
  return link;
}

TEST(Diff, IdenticalReportsAreEmpty) {
  CfsReport report;
  report.interfaces.emplace(ip(1), resolved_iface(ip(1), FacilityId(0)));
  report.links.push_back(
      plain_link(ip(1), ip(2), InterconnectionType::PublicLocal));
  EXPECT_TRUE(diff_reports(report, report).empty());
}

TEST(Diff, ResolutionTransitions) {
  CfsReport before;
  before.interfaces.emplace(ip(1), open_iface(ip(1)));
  before.interfaces.emplace(ip(2), resolved_iface(ip(2), FacilityId(5)));

  CfsReport after;
  after.interfaces.emplace(ip(1), resolved_iface(ip(1), FacilityId(3)));
  after.interfaces.emplace(ip(2), open_iface(ip(2)));

  const ReportDiff diff = diff_reports(before, after);
  ASSERT_EQ(diff.newly_resolved.size(), 1u);
  EXPECT_EQ(diff.newly_resolved[0], ip(1));
  ASSERT_EQ(diff.lost.size(), 1u);
  EXPECT_EQ(diff.lost[0], ip(2));
  EXPECT_TRUE(diff.moved.empty());
}

TEST(Diff, MovedFacilities) {
  CfsReport before;
  before.interfaces.emplace(ip(1), resolved_iface(ip(1), FacilityId(5)));
  CfsReport after;
  after.interfaces.emplace(ip(1), resolved_iface(ip(1), FacilityId(9)));

  const ReportDiff diff = diff_reports(before, after);
  ASSERT_EQ(diff.moved.size(), 1u);
  EXPECT_EQ(diff.moved[0].before, FacilityId(5));
  EXPECT_EQ(diff.moved[0].after, FacilityId(9));
  EXPECT_TRUE(diff.newly_resolved.empty());
  EXPECT_TRUE(diff.lost.empty());
}

TEST(Diff, LinkAppearanceAndRetyping) {
  CfsReport before;
  before.links.push_back(
      plain_link(ip(1), ip(2), InterconnectionType::PublicLocal));
  before.links.push_back(
      plain_link(ip(3), ip(4), InterconnectionType::PrivateCrossConnect));

  CfsReport after;
  after.links.push_back(
      plain_link(ip(1), ip(2), InterconnectionType::PublicRemote));
  after.links.push_back(
      plain_link(ip(5), ip(6), InterconnectionType::PrivateTethering));

  const ReportDiff diff = diff_reports(before, after);
  ASSERT_EQ(diff.retyped.size(), 1u);
  EXPECT_EQ(diff.retyped[0].before, InterconnectionType::PublicLocal);
  EXPECT_EQ(diff.retyped[0].after, InterconnectionType::PublicRemote);
  ASSERT_EQ(diff.new_links.size(), 1u);
  EXPECT_EQ(diff.new_links[0], std::make_pair(ip(5), ip(6)));
  ASSERT_EQ(diff.gone_links.size(), 1u);
  EXPECT_EQ(diff.gone_links[0], std::make_pair(ip(3), ip(4)));
}

// --- structured JSON diff (the `cfs diff` / oracle-message machinery) ---

TEST(JsonDiff, IdenticalDocumentsAreEmpty) {
  const JsonValue doc = parse_json(R"({"a": 1, "b": [true, null, "x"]})");
  const JsonDiff diff = diff_json(doc, doc);
  EXPECT_TRUE(diff.empty());
  EXPECT_EQ(diff.total, 0u);
  EXPECT_EQ(diff.first_path(), "");
}

TEST(JsonDiff, ValueMismatchCarriesPathAndBothValues) {
  const JsonValue left = parse_json(R"({"outer": {"inner": [1, 2, 3]}})");
  const JsonValue right = parse_json(R"({"outer": {"inner": [1, 9, 3]}})");
  const JsonDiff diff = diff_json(left, right);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.first_path(), "/outer/inner/1");
  EXPECT_EQ(diff.entries[0].kind, JsonDiffEntry::Kind::ValueMismatch);
  EXPECT_EQ(diff.entries[0].left, "2");
  EXPECT_EQ(diff.entries[0].right, "9");
}

TEST(JsonDiff, MissingAndExtraKeys) {
  const JsonValue left = parse_json(R"({"both": 1, "only_left": 2})");
  const JsonValue right = parse_json(R"({"both": 1, "only_right": 3})");
  const JsonDiff diff = diff_json(left, right);
  ASSERT_EQ(diff.entries.size(), 2u);
  // Object keys walk in sorted order.
  EXPECT_EQ(diff.entries[0].path, "/only_left");
  EXPECT_EQ(diff.entries[0].kind, JsonDiffEntry::Kind::Missing);
  EXPECT_EQ(diff.entries[1].path, "/only_right");
  EXPECT_EQ(diff.entries[1].kind, JsonDiffEntry::Kind::Extra);
}

TEST(JsonDiff, TypeMismatchStopsDescent) {
  const JsonValue left = parse_json(R"({"x": {"deep": 1}})");
  const JsonValue right = parse_json(R"({"x": [1]})");
  const JsonDiff diff = diff_json(left, right);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].path, "/x");
  EXPECT_EQ(diff.entries[0].kind, JsonDiffEntry::Kind::TypeMismatch);
}

TEST(JsonDiff, ArrayLengthMismatch) {
  const JsonValue left = parse_json(R"([1, 2, 3])");
  const JsonValue right = parse_json(R"([1, 2])");
  const JsonDiff diff = diff_json(left, right);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].path, "/2");
  EXPECT_EQ(diff.entries[0].kind, JsonDiffEntry::Kind::Missing);
}

TEST(JsonDiff, RootScalarMismatch) {
  const JsonDiff diff = diff_json(parse_json("1"), parse_json("2"));
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].path, "");
}

TEST(JsonDiff, EntryListIsBoundedButTotalIsNot) {
  JsonValue::Object left, right;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    left.emplace(key, i);
    right.emplace(key, i + 1000);
  }
  JsonDiffOptions options;
  options.max_entries = 5;
  const JsonDiff diff =
      diff_json(JsonValue(std::move(left)), JsonValue(std::move(right)),
                options);
  EXPECT_EQ(diff.entries.size(), 5u);
  EXPECT_EQ(diff.total, 50u);
  EXPECT_TRUE(diff.truncated());
}

TEST(JsonDiff, IgnorePrefixesDropSubtrees) {
  const JsonValue left =
      parse_json(R"({"metrics": {"wall_ms": 10}, "payload": 1})");
  const JsonValue right =
      parse_json(R"({"metrics": {"wall_ms": 99}, "payload": 2})");
  JsonDiffOptions options;
  options.ignore_prefixes = {"/metrics"};
  const JsonDiff diff = diff_json(left, right, options);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.first_path(), "/payload");
  // Prefix matching is path-segment aware: "/metrics" must not swallow a
  // sibling key that merely starts with the same characters.
  const JsonValue l2 = parse_json(R"({"metricsX": 1})");
  const JsonValue r2 = parse_json(R"({"metricsX": 2})");
  EXPECT_FALSE(diff_json(l2, r2, options).empty());
}

TEST(JsonDiff, IntegerVersusDoubleRule) {
  // An integral double and the exact integer it denotes are the same
  // number — epoch diffs must never report spurious "1e18 != 1e18" drift
  // just because one side parsed into the integer alternative.
  const JsonValue as_integer = parse_json(R"({"stamp": 1000000000000000000})");
  JsonValue::Object o;
  o.emplace("stamp", JsonValue(1e18));
  const JsonValue as_double{std::move(o)};
  EXPECT_TRUE(diff_json(as_integer, as_double).empty());
  EXPECT_TRUE(diff_json(as_double, as_integer).empty());

  // But a genuinely different value above 2^53 is real drift, recorded as
  // a value mismatch (not a type mismatch) with both renderings intact.
  const JsonValue left = parse_json(R"({"stamp": 9007199254740993})");
  JsonValue::Object ro;
  ro.emplace("stamp", JsonValue(9007199254740992.0));
  const JsonValue right{std::move(ro)};
  const JsonDiff diff = diff_json(left, right);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].kind, JsonDiffEntry::Kind::ValueMismatch);
  EXPECT_EQ(diff.entries[0].path, "/stamp");
  EXPECT_EQ(diff.entries[0].left, "9007199254740993");
  EXPECT_EQ(diff.entries[0].right, "9007199254740992");
}

TEST(JsonDiff, PrintedFormIsStable) {
  const JsonValue left = parse_json(R"({"a": 1})");
  const JsonValue right = parse_json(R"({"a": 2})");
  std::ostringstream os;
  print_json_diff(os, diff_json(left, right));
  EXPECT_EQ(os.str(),
            "first divergent path: /a\n"
            "  /a: value mismatch: 1 -> 2\n"
            "1 difference(s)\n");
  std::ostringstream same;
  print_json_diff(same, diff_json(left, left));
  EXPECT_EQ(same.str(), "identical\n");
}

TEST(Diff, SelfDiffOfRealRunIsEmptyAndCrossSeedIsNot) {
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.max_iterations = 5;
  Pipeline p1(config);
  auto t1 = p1.initial_campaign(p1.default_targets(1, 1), 0.5);
  const CfsReport r1 = p1.run_cfs(std::move(t1));
  EXPECT_TRUE(diff_reports(r1, r1).empty());

  config.seed += 1;
  config.generator.seed += 1;
  Pipeline p2(config);
  auto t2 = p2.initial_campaign(p2.default_targets(1, 1), 0.5);
  const CfsReport r2 = p2.run_cfs(std::move(t2));
  EXPECT_FALSE(diff_reports(r1, r2).empty());
}

}  // namespace
}  // namespace cfs
