// Fault plane: schedule determinism, campaign resilience (retry, circuit
// breaker, failover), timeout-vs-loss, the attrition accounting invariant,
// and the two reproducibility guarantees the plane must keep:
//   1. a zero-intensity plan is the identity (no FaultPlane is built, and
//      reports match a fault-free pipeline byte for byte), and
//   2. the same seed + plan replays a faulted campaign byte for byte.
#include "net/faults.h"

#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.h"
#include "io/export.h"
#include "support/mini_net.h"
#include "traceroute/campaign.h"
#include "util/trace.h"

namespace cfs {
namespace {

using testing::MiniNet;

// ---------------------------------------------------------------------------
// FaultPlane unit behaviour

TEST(FaultPlan, ZeroIntensityIsNotAny) {
  EXPECT_FALSE(FaultPlan{}.any());
  FaultPlan plan;
  plan.lg_outage_fraction = 0.1;
  EXPECT_TRUE(plan.any());
  plan = FaultPlan{};
  plan.lg_ban_burst = 5;
  EXPECT_TRUE(plan.any());
  plan = FaultPlan{};
  plan.peeringdb_withheld = 0.01;
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlane, ZeroPlanInjectsNothing) {
  FaultPlane plane(FaultPlan{}, 42);
  for (std::uint32_t id = 0; id < 50; ++id) {
    EXPECT_FALSE(plane.lg_offline(RouterId(id), 1000.0));
    EXPECT_FALSE(plane.lg_banned(RouterId(id), 1000.0));
    EXPECT_FALSE(plane.vp_dead(VantagePointId(id), 1e9));
    Rng timeouts = plane.timeout_stream(id);
    EXPECT_FALSE(plane.probe_times_out(timeouts));
    EXPECT_FALSE(plane.withhold_record(0.0, id));
  }
}

TEST(FaultPlane, OutageScheduleIsDeterministicAndSeedDependent) {
  FaultPlan plan;
  plan.lg_outage_fraction = 0.5;
  FaultPlane a(plan, 7);
  FaultPlane b(plan, 7);
  FaultPlane c(plan, 8);
  int hit = 0, differs = 0;
  for (std::uint32_t id = 0; id < 200; ++id) {
    bool any_window = false;
    for (double t = 0.0; t < 3600.0; t += 300.0) {
      EXPECT_EQ(a.lg_offline(RouterId(id), t), b.lg_offline(RouterId(id), t));
      any_window |= a.lg_offline(RouterId(id), t);
      differs += a.lg_offline(RouterId(id), t) != c.lg_offline(RouterId(id), t);
    }
    hit += any_window;
  }
  // Roughly half the LGs suffer an outage; a different seed picks a
  // different set.
  EXPECT_GT(hit, 40);
  EXPECT_LT(hit, 160);
  EXPECT_GT(differs, 0);
}

TEST(FaultPlane, OutageWindowIsBounded) {
  FaultPlan plan;
  plan.lg_outage_fraction = 1.0;  // every LG has a window
  plan.lg_outage_start_horizon_s = 100.0;
  plan.lg_outage_duration_s = 50.0;
  FaultPlane plane(plan, 3);
  for (std::uint32_t id = 0; id < 20; ++id) {
    // Well past start horizon + duration every LG is back.
    EXPECT_FALSE(plane.lg_offline(RouterId(id), 151.0));
    // Somewhere in [0, 150) it must be down.
    bool down = false;
    for (double t = 0.0; t < 150.0; t += 1.0)
      down |= plane.lg_offline(RouterId(id), t);
    EXPECT_TRUE(down);
  }
}

TEST(FaultPlane, BanTripsAfterBurstAndExpires) {
  FaultPlan plan;
  plan.lg_ban_burst = 3;
  plan.lg_ban_window_s = 100.0;
  plan.lg_ban_duration_s = 500.0;
  FaultPlane plane(plan, 1);
  const RouterId lg(9);

  for (int i = 0; i < 3; ++i) plane.record_lg_query(lg, i * 10.0);
  EXPECT_FALSE(plane.lg_banned(lg, 30.0));  // at the budget, not over it
  plane.record_lg_query(lg, 30.0);          // 4th query within the window
  EXPECT_TRUE(plane.lg_banned(lg, 31.0));
  EXPECT_EQ(plane.bans_tripped(), 1u);
  // Queries during the ban are refused and don't extend it.
  plane.record_lg_query(lg, 100.0);
  EXPECT_TRUE(plane.lg_banned(lg, 529.0));
  EXPECT_FALSE(plane.lg_banned(lg, 531.0));
  EXPECT_EQ(plane.bans_tripped(), 1u);
}

TEST(FaultPlane, SpacedQueriesNeverTripBan) {
  FaultPlan plan;
  plan.lg_ban_burst = 2;
  plan.lg_ban_window_s = 50.0;
  FaultPlane plane(plan, 1);
  // One query per window: the paper's etiquette keeps the LG happy.
  for (int i = 0; i < 20; ++i) plane.record_lg_query(RouterId(1), i * 60.0);
  EXPECT_EQ(plane.bans_tripped(), 0u);
}

TEST(FaultPlane, VpChurnKillsForGood) {
  FaultPlan plan;
  plan.vp_churn_fraction = 1.0;
  plan.vp_churn_horizon_s = 1000.0;
  FaultPlane plane(plan, 11);
  for (std::uint32_t id = 0; id < 20; ++id) {
    const double death = plane.vp_death_s(VantagePointId(id));
    ASSERT_GE(death, 0.0);
    ASSERT_LT(death, 1000.0);
    EXPECT_FALSE(plane.vp_dead(VantagePointId(id), death - 0.001));
    EXPECT_TRUE(plane.vp_dead(VantagePointId(id), death));
    EXPECT_TRUE(plane.vp_dead(VantagePointId(id), 1e9));  // never comes back
  }
}

TEST(FaultPlane, WithholdIsPerRecordAndRoughlyCalibrated) {
  FaultPlane plane(FaultPlan{}, 5);
  int withheld = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const bool w = plane.withhold_record(0.3, key);
    EXPECT_EQ(w, plane.withhold_record(0.3, key));  // pure function of key
    withheld += w;
  }
  EXPECT_GT(withheld, 200);
  EXPECT_LT(withheld, 400);
}

// ---------------------------------------------------------------------------
// Engine: timeout is distinct from loss

TEST(FaultedEngine, TimeoutsAreDistinctFromLoss) {
  MiniNet net;
  const Asn a = net.add_as(1000, AsType::Transit, {0, 1});
  const Asn c = net.add_as(5000, AsType::Content, {1});
  net.xconnect(c, a, 1, BusinessRel::CustomerProvider);

  RoutingOracle oracle(net.topo);
  ForwardingEngine fwd(net.topo, oracle);
  FaultPlan plan;
  plan.probe_timeout_rate = 0.5;
  FaultPlane plane(plan, 2);
  EngineConfig cfg;
  cfg.probe_loss = 0.0;  // any silence below is a timeout, not loss
  TracerouteEngine engine(net.topo, fwd, cfg, 9, &plane);

  // Hand-built vantage point in the transit AS (the mini topology has no
  // eyeball ASes for VantagePointSet to host Atlas probes on).
  VantagePoint vp;
  vp.id = VantagePointId(0);
  vp.platform = Platform::RipeAtlas;
  vp.attach = net.topo.routers_of(a).front();
  vp.asn = a;
  vp.access_ms = 10.0;
  const auto targets = MeasurementCampaign::targets_for(net.topo, c);
  ASSERT_FALSE(targets.empty());

  std::size_t timed_out = 0, responded = 0;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    const TraceResult trace = engine.trace_seeded(vp, targets[0], rep);
    std::size_t counted = 0;
    for (const Hop& hop : trace.hops) {
      EXPECT_FALSE(hop.responded && hop.timed_out);
      counted += hop.timed_out;
      responded += hop.responded;
    }
    EXPECT_EQ(counted, trace.hops_timed_out);
    timed_out += trace.hops_timed_out;
  }
  EXPECT_GT(timed_out, 0u);   // rate 0.5 must silence some hops...
  EXPECT_GT(responded, 0u);   // ...but not all of them
}

// ---------------------------------------------------------------------------
// Campaign resilience

struct FaultedCampaign {
  MiniNet net;
  Asn a, c;
  std::unique_ptr<LookingGlassDirectory> lgs;
  std::unique_ptr<RoutingOracle> routing;
  std::unique_ptr<ForwardingEngine> forwarding;
  std::unique_ptr<FaultPlane> plane;
  std::unique_ptr<TracerouteEngine> engine;
  std::unique_ptr<MeasurementCampaign> campaign;
  std::vector<Ipv4> targets;

  explicit FaultedCampaign(const FaultPlan& plan, std::uint64_t seed = 7) {
    a = net.add_as(1000, AsType::Transit, {0, 1});
    c = net.add_as(5000, AsType::Content, {1});
    net.xconnect(c, a, 1, BusinessRel::CustomerProvider);
    lgs = std::make_unique<LookingGlassDirectory>(
        net.topo, LookingGlassDirectory::Config{.host_probability = 1.0,
                                                .bgp_support_probability = 0,
                                                .cooldown_s = 60,
                                                .seed = 1});
    routing = std::make_unique<RoutingOracle>(net.topo);
    forwarding = std::make_unique<ForwardingEngine>(net.topo, *routing);
    plane = std::make_unique<FaultPlane>(plan, seed);
    EngineConfig cfg;
    cfg.probe_loss = 0.0;
    engine = std::make_unique<TracerouteEngine>(net.topo, *forwarding, cfg, 9,
                                                plane.get());
    campaign = std::make_unique<MeasurementCampaign>(net.topo, *engine, *lgs,
                                                     plane.get());
    targets = MeasurementCampaign::targets_for(net.topo, c);
  }

  // A hand-built Atlas vantage point behind the first router of the AS.
  [[nodiscard]] VantagePoint atlas_vp(std::uint32_t id, Asn owner) const {
    VantagePoint vp;
    vp.id = VantagePointId(id);
    vp.platform = Platform::RipeAtlas;
    for (const auto& router : net.topo.routers())
      if (router.owner == owner) {
        vp.attach = router.id;
        break;
      }
    vp.asn = owner;
    vp.access_ms = 10.0;
    return vp;
  }
};

void expect_invariant(const FaultMetrics& fm) {
  EXPECT_EQ(fm.traces_attempted,
            fm.traces_kept + fm.traces_unreachable + fm.probes_abandoned +
                fm.probes_skipped_open_circuit)
      << "every attempted probe must be accounted for exactly once";
}

TEST(FaultedCampaignTest, PermanentOutageOpensCircuitAndSkips) {
  FaultPlan plan;
  plan.lg_outage_fraction = 1.0;          // every LG...
  plan.lg_outage_start_horizon_s = 0.0;   // ...down from t=0...
  plan.lg_outage_duration_s = 1e9;        // ...forever
  plan.retry.max_retries = 2;
  plan.retry.circuit_threshold = 3;
  FaultedCampaign fx(plan);

  // One LG vantage point, probed repeatedly via probe(); no run() came
  // first, so there is no failover pool.
  VantagePoint lg_vp;
  lg_vp.platform = Platform::LookingGlass;
  lg_vp.id = VantagePointId(0);
  lg_vp.attach = fx.net.topo.routers().front().id;
  lg_vp.asn = fx.net.topo.routers().front().owner;

  // First unit: 1 preflight + 2 retries, all unavailable -> abandoned, and
  // the 3 consecutive failures open the circuit.
  TraceResult t1 = fx.campaign->probe(lg_vp, fx.targets[0]);
  EXPECT_TRUE(t1.hops.empty());
  const FaultMetrics& fm = fx.campaign->fault_stats();
  EXPECT_EQ(fm.retries, 2u);
  EXPECT_EQ(fm.probes_abandoned, 1u);
  EXPECT_EQ(fm.circuits_opened, 1u);

  // Second unit: the breaker is open, work is skipped without retrying.
  TraceResult t2 = fx.campaign->probe(lg_vp, fx.targets[0]);
  EXPECT_TRUE(t2.hops.empty());
  EXPECT_EQ(fm.retries, 2u);  // unchanged: open circuit short-circuits
  EXPECT_EQ(fm.probes_skipped_open_circuit, 1u);
  expect_invariant(fm);
}

TEST(FaultedCampaignTest, TransientOutageRecoversViaBackoff) {
  FaultPlan plan;
  plan.lg_outage_fraction = 1.0;
  plan.lg_outage_start_horizon_s = 0.0;  // down at t=0
  plan.lg_outage_duration_s = 4.0;       // but only briefly
  plan.retry.max_retries = 2;
  plan.retry.backoff_base_s = 5.0;  // first retry lands after the outage
  FaultedCampaign fx(plan);

  VantagePoint lg_vp;
  lg_vp.platform = Platform::LookingGlass;
  lg_vp.id = VantagePointId(0);
  lg_vp.attach = fx.net.topo.routers().front().id;
  lg_vp.asn = fx.net.topo.routers().front().owner;

  const TraceResult trace = fx.campaign->probe(lg_vp, fx.targets[0]);
  EXPECT_FALSE(trace.hops.empty());  // retry succeeded after the window
  const FaultMetrics& fm = fx.campaign->fault_stats();
  EXPECT_GE(fm.retries, 1u);
  EXPECT_EQ(fm.traces_kept, 1u);
  EXPECT_EQ(fm.probes_abandoned, 0u);
  expect_invariant(fm);
}

// Two Atlas VPs behind different routers of the same transit AS (same
// metro): `dead` is scheduled to churn and `alive` never does. The churn
// schedule is a pure hash, so pick the ids by probing it directly.
struct SameMetroPair {
  VantagePoint dead, alive;
};

void same_metro_pair(const FaultedCampaign& fx, SameMetroPair& pair) {
  std::uint32_t doomed_id = 0, safe_id = 0;
  bool found_doomed = false, found_safe = false;
  for (std::uint32_t id = 0; id < 64 && !(found_doomed && found_safe); ++id) {
    const double death = fx.plane->vp_death_s(VantagePointId(id));
    if (death >= 0.0 && !found_doomed) doomed_id = id, found_doomed = true;
    if (death < 0.0 && !found_safe) safe_id = id, found_safe = true;
  }
  ASSERT_TRUE(found_doomed && found_safe);

  pair = {fx.atlas_vp(doomed_id, fx.a), fx.atlas_vp(safe_id, fx.a)};
  // Attach the failover candidate to a *different* router in the same
  // metro, otherwise pick_failover skips it.
  const Topology& topo = fx.net.topo;
  for (const auto& router : topo.routers())
    if (router.owner == fx.a && router.id.value != pair.dead.attach.value &&
        topo.metro_of(router.facility) ==
            topo.metro_of(topo.router(pair.dead.attach).facility)) {
      pair.alive.attach = router.id;
      break;
    }
  ASSERT_NE(pair.alive.attach.value, pair.dead.attach.value);
}

TEST(FaultedCampaignTest, DeadVpFailsOverToSameMetro) {
  FaultPlan plan;
  plan.vp_churn_fraction = 0.5;     // half the VPs churn...
  plan.vp_churn_horizon_s = 100.0;  // ...and are dead by t=100
  FaultedCampaign fx(plan);
  SameMetroPair pair;
  ASSERT_NO_FATAL_FAILURE(same_metro_pair(fx, pair));
  const auto& [dead, alive] = pair;

  const VantagePoint* pool[] = {&dead, &alive};
  // First run advances virtual time by a 300s batch per target, past the
  // churn horizon; the second run then hits the dead VP's schedule.
  (void)fx.campaign->run(pool, fx.targets);
  ASSERT_GE(fx.campaign->virtual_elapsed_s(), 100.0);
  const auto more = fx.campaign->run(pool, fx.targets);

  const FaultMetrics& fm = fx.campaign->fault_stats();
  EXPECT_GE(fm.failovers, fx.targets.size());  // one per dead-VP unit
  EXPECT_GT(fm.traces_kept, 0u);
  EXPECT_EQ(fm.probes_abandoned, 0u);  // everything was salvaged
  expect_invariant(fm);
  // All of the second run's work executed from the substitute VP.
  ASSERT_FALSE(more.empty());
  for (const auto& tr : more) EXPECT_TRUE(tr.vp == alive.id);
}

TEST(FaultedCampaignTest, ProbeFailsOverThroughTheLastRunsPool) {
  // probe() has no pool of its own: it fails over through the one the
  // last faulted run() left behind (how CFS follow-ups reach VPs of the
  // initial campaign), and before any run() a dead VP's probe is
  // abandoned.
  FaultPlan plan;
  plan.vp_churn_fraction = 0.5;
  plan.vp_churn_horizon_s = 0.0;  // churned VPs are dead from t = 0
  for (const bool after_run : {true, false}) {
    SCOPED_TRACE(after_run ? "after run()" : "before any run()");
    FaultedCampaign fx(plan);
    SameMetroPair pair;
    ASSERT_NO_FATAL_FAILURE(same_metro_pair(fx, pair));
    const auto& [dead, alive] = pair;
    if (after_run) {
      const VantagePoint* pool[] = {&dead, &alive};
      (void)fx.campaign->run(pool, fx.targets);
    }
    const FaultMetrics before = fx.campaign->fault_stats();
    const TraceResult trace = fx.campaign->probe(dead, fx.targets[0]);
    const FaultMetrics& fm = fx.campaign->fault_stats();
    if (after_run) {
      EXPECT_EQ(fm.failovers, before.failovers + 1);
      EXPECT_EQ(fm.traces_kept, before.traces_kept + 1);
      EXPECT_FALSE(trace.hops.empty());
      EXPECT_TRUE(trace.vp == alive.id);
    } else {
      EXPECT_EQ(fm.failovers, 0u);
      EXPECT_EQ(fm.probes_abandoned, 1u);
      EXPECT_TRUE(trace.hops.empty());
    }
    expect_invariant(fm);
  }
}

TEST(FaultedCampaignTest, RateLimitBanTriggersBackoffAccounting) {
  FaultPlan plan;
  plan.lg_ban_burst = 1;          // second query within the window bans
  plan.lg_ban_window_s = 1000.0;  // wider than the 60s LG cooldown
  plan.lg_ban_duration_s = 1e9;
  plan.retry.max_retries = 1;
  plan.retry.circuit_threshold = 2;
  FaultedCampaign fx(plan);

  VantagePoint lg_vp;
  lg_vp.platform = Platform::LookingGlass;
  lg_vp.id = VantagePointId(0);
  lg_vp.attach = fx.net.topo.routers().front().id;
  lg_vp.asn = fx.net.topo.routers().front().owner;

  // Query 1 executes; query 2 trips the ban; query 3 finds it banned.
  (void)fx.campaign->probe(lg_vp, fx.targets[0]);
  (void)fx.campaign->probe(lg_vp, fx.targets[0]);
  (void)fx.campaign->probe(lg_vp, fx.targets[0]);
  const FaultMetrics& fm = fx.campaign->fault_stats();
  EXPECT_GE(fm.lg_bans, 1u);
  EXPECT_GT(fm.retries, 0u);
  expect_invariant(fm);
}

// ---------------------------------------------------------------------------
// Windowed campaign: the serial pass runs over windows of targets and, with
// a pool, speculates each window before executing it. The tiny world with
// every VP and every AS's targets spans several windows, and faults shift
// repeat counters (failovers, abandoned units) that the next window's
// predictions start from. Nothing of that may show in the output.

FaultPlan window_fault_plan() {
  FaultPlan plan;
  plan.lg_outage_fraction = 0.5;
  plan.lg_ban_burst = 3;
  // Every probe host dies at some point of the ~8 h campaign, so failovers
  // and abandoned units are spread over all of its windows.
  plan.vp_churn_fraction = 1.0;
  plan.vp_churn_horizon_s = 30000.0;
  plan.probe_timeout_rate = 0.1;
  plan.seed = 11;
  return plan;
}

PipelineConfig window_config(int threads) {
  PipelineConfig config = PipelineConfig::tiny();
  config.faults = window_fault_plan();
  config.threads = threads;
  return config;
}

std::vector<Ipv4> every_target(const Topology& topo) {
  std::vector<Ipv4> out;
  for (const auto& as : topo.ases()) {
    const auto per_as = MeasurementCampaign::targets_for(topo, as.asn);
    out.insert(out.end(), per_as.begin(), per_as.end());
  }
  return out;
}

// Every byte of a trace, RTT bits included.
std::string trace_bytes(const TraceResult& trace) {
  std::string out;
  const auto put = [&out](const auto& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(trace.vp.value);
  put(trace.target.value());
  put(trace.reached_target);
  put(trace.hops_timed_out);
  for (const Hop& hop : trace.hops) {
    put(hop.address.value());
    put(hop.rtt_ms);
    put(hop.responded);
    put(hop.timed_out);
  }
  return out;
}

// `campaign.speculate` spans closed so far in this process.
std::uint64_t speculations() {
  const MetricsSnapshot snap = Trace::metrics();
  const auto it = snap.timers.find("campaign.speculate");
  return it == snap.timers.end() ? std::uint64_t{0} : it->second.count;
}

struct WindowedRun {
  std::vector<std::string> traces;  // kept traces, in keep-order
  FaultMetrics stats;
  double elapsed_s = 0.0;
  std::uint64_t speculated_windows = 0;
};

// Every VP probes every target of every AS, and the target list is walked
// twice in one run: a unit's second execution lives in a later window, so
// that window's predictions start from repeat counters the earlier
// windows' faults shifted. `sink` selects the sink overload of run() over
// the vector wrapper.
WindowedRun run_windowed(int threads, bool sink) {
  Pipeline pipeline(window_config(threads));
  std::vector<const VantagePoint*> vps;
  for (const VantagePoint& vp : pipeline.vantage_points().all())
    vps.push_back(&vp);
  const std::vector<Ipv4> once = every_target(pipeline.topology());
  std::vector<Ipv4> targets = once;
  targets.insert(targets.end(), once.begin(), once.end());
  MeasurementCampaign& campaign = pipeline.campaign();
  WindowedRun out;
  const std::uint64_t before = speculations();
  if (sink) {
    campaign.run(vps, targets,
                 [&out](const VantagePoint& vp, TraceResult&& trace) {
                   EXPECT_EQ(trace.vp, vp.id);
                   out.traces.push_back(trace_bytes(trace));
                 });
  } else {
    for (const TraceResult& trace : campaign.run(vps, targets))
      out.traces.push_back(trace_bytes(trace));
  }
  out.speculated_windows = speculations() - before;
  out.stats = campaign.fault_stats();
  out.elapsed_s = campaign.virtual_elapsed_s();
  return out;
}

TEST(CampaignWindows, PooledPassMatchesSerialAcrossWindows) {
  const WindowedRun serial = run_windowed(1, false);
  const WindowedRun pooled = run_windowed(4, false);
  EXPECT_EQ(serial.speculated_windows, 0u);
  EXPECT_GE(pooled.speculated_windows, 3u);
  // The plan must exercise what shifts repeat counters.
  EXPECT_GT(serial.stats.failovers, 0u);
  EXPECT_GT(serial.stats.probes_abandoned, 0u);
  expect_invariant(serial.stats);

  EXPECT_EQ(serial.stats, pooled.stats);  // every counter but wall_ms
  EXPECT_EQ(serial.elapsed_s, pooled.elapsed_s);
  ASSERT_EQ(serial.traces.size(), pooled.traces.size());
  for (std::size_t i = 0; i < serial.traces.size(); ++i)
    ASSERT_EQ(serial.traces[i], pooled.traces[i]) << "kept trace " << i;
}

TEST(CampaignWindows, SinkMatchesRunVector) {
  const WindowedRun vector = run_windowed(4, false);
  const WindowedRun sink = run_windowed(4, true);
  EXPECT_EQ(vector.stats, sink.stats);
  EXPECT_EQ(vector.elapsed_s, sink.elapsed_s);
  EXPECT_EQ(vector.traces, sink.traces);
}

struct ProbedList {
  std::vector<std::string> traces;  // one per unit, empty ones included
  std::string next_probe;           // one more single probe() afterwards
  FaultMetrics after_run;           // before the list
  FaultMetrics after_list;          // before the single probe
  FaultMetrics stats;
  double elapsed_s = 0.0;
  std::uint64_t speculations = 0;
  std::size_t hits = 0;
  std::uint64_t hit_counter = 0;  // campaign.speculation_hits registry delta
};

std::uint64_t hit_counter() {
  const MetricsSnapshot snap = Trace::metrics();
  const auto it = snap.counters.find("campaign.speculation_hits");
  return it == snap.counters.end() ? std::uint64_t{0} : it->second;
}

// A faulted run() of every VP over five targets leaves the failover pool
// behind and ends about an hour into the churn horizon, so the list that
// follows meets live VPs, dead ones and LGs in outage. The list is Step-4
// style: one unit per VP, the whole list twice, so each unit's repeat
// counter starts from the run()'s and counts up inside the list. `as_list`
// selects probe(units) over one single-unit probe() per unit.
ProbedList probe_list(int threads, bool as_list) {
  Pipeline pipeline(window_config(threads));
  std::vector<const VantagePoint*> vps;
  for (const VantagePoint& vp : pipeline.vantage_points().all())
    vps.push_back(&vp);
  const std::vector<Ipv4> targets = every_target(pipeline.topology());
  MeasurementCampaign& campaign = pipeline.campaign();
  (void)campaign.run(vps, std::vector<Ipv4>(targets.begin(),
                                            targets.begin() + 5));

  std::vector<ProbeUnit> units;
  for (std::size_t i = 0; i < vps.size(); ++i)
    units.push_back({vps[i], targets[(7 * i) % targets.size()]});
  const std::vector<ProbeUnit> once = units;
  units.insert(units.end(), once.begin(), once.end());

  ProbedList out;
  out.after_run = campaign.fault_stats();
  const std::uint64_t speculations_before = speculations();
  const std::uint64_t counter_before = hit_counter();
  const std::size_t hits_before = campaign.speculation_hits();
  std::vector<TraceResult> results;
  if (as_list) {
    results = campaign.probe(units);
  } else {
    for (const ProbeUnit& unit : units)
      results.push_back(campaign.probe(*unit.vp, unit.target));
  }
  out.speculations = speculations() - speculations_before;
  out.hit_counter = hit_counter() - counter_before;
  out.hits = campaign.speculation_hits() - hits_before;
  out.after_list = campaign.fault_stats();
  EXPECT_EQ(results.size(), units.size());
  for (const TraceResult& trace : results)
    out.traces.push_back(trace_bytes(trace));
  out.next_probe = trace_bytes(campaign.probe(*units[0].vp, units[0].target));
  out.stats = campaign.fault_stats();
  out.elapsed_s = campaign.virtual_elapsed_s();
  return out;
}

TEST(CampaignWindows, PooledProbeListMatchesSerialProbes) {
  const ProbedList serial = probe_list(1, false);
  const ProbedList pooled = probe_list(4, true);
  EXPECT_EQ(pooled.speculations, 1u);  // the whole list, once
  EXPECT_GT(pooled.hits, 0u);
  EXPECT_EQ(pooled.hit_counter, pooled.hits);
  // Without a pool the list speculates nothing and is the per-unit loop.
  const ProbedList unpooled = probe_list(1, true);
  EXPECT_EQ(unpooled.speculations, 0u);
  EXPECT_EQ(unpooled.hits, 0u);
  EXPECT_EQ(unpooled.traces, serial.traces);
  EXPECT_EQ(unpooled.stats, serial.stats);
  EXPECT_EQ(unpooled.elapsed_s, serial.elapsed_s);

  // The list must fail over from dead VPs, retry LGs in outage, and
  // still keep traces.
  const FaultMetrics& run = serial.after_run;
  const FaultMetrics& list = serial.after_list;
  EXPECT_GT(list.failovers, run.failovers);
  EXPECT_GT(list.retries, run.retries);
  EXPECT_GT(list.traces_kept, run.traces_kept);
  expect_invariant(serial.stats);

  EXPECT_EQ(serial.after_list, pooled.after_list);  // all but wall_ms
  EXPECT_EQ(serial.stats, pooled.stats);
  EXPECT_EQ(serial.elapsed_s, pooled.elapsed_s);
  ASSERT_EQ(serial.traces.size(), pooled.traces.size());
  for (std::size_t i = 0; i < serial.traces.size(); ++i)
    ASSERT_EQ(serial.traces[i], pooled.traces[i]) << "unit " << i;
  // Repeat counters advanced identically: the next execution of a listed
  // unit draws the same stream.
  EXPECT_EQ(serial.next_probe, pooled.next_probe);
}

// ---------------------------------------------------------------------------
// Pipeline-level determinism and identity (the PR's acceptance criteria)

// Timing metrics are wall-clock and legitimately differ between runs; the
// determinism guarantee covers everything else. Compare reports with the
// metrics subtree removed, then the fault counters exactly.
void expect_reports_identical(const CfsReport& r1, const CfsReport& r2) {
  EXPECT_EQ(r1.metrics.faults, r2.metrics.faults);
  JsonValue j1 = report_to_json(r1);
  JsonValue j2 = report_to_json(r2);
  j1.as_object().erase("metrics");
  j2.as_object().erase("metrics");
  EXPECT_EQ(j1.pretty(), j2.pretty());
}

CfsReport run_tiny(const PipelineConfig& config) {
  Pipeline pipeline(config);
  auto traces = pipeline.initial_campaign(pipeline.default_targets(1, 1), 0.5);
  return pipeline.run_cfs(std::move(traces));
}

TEST(FaultDeterminism, ZeroPlanIsTheIdentity) {
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.max_iterations = 4;
  // Zero intensities: no plane is even constructed...
  Pipeline pipeline(config);
  EXPECT_EQ(pipeline.faults(), nullptr);

  // ...and a config that sets only inert FaultPlan fields (retry policy,
  // seed) produces a byte-identical report: the plane is strictly additive.
  PipelineConfig inert = config;
  inert.faults.seed = 999;
  inert.faults.retry.max_retries = 9;
  expect_reports_identical(run_tiny(config), run_tiny(inert));
}

TEST(FaultDeterminism, SameSeedAndPlanReplayByteIdentical) {
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.max_iterations = 4;
  config.faults.lg_outage_fraction = 0.4;
  config.faults.lg_ban_burst = 4;
  config.faults.vp_churn_fraction = 0.2;
  config.faults.probe_timeout_rate = 0.1;
  config.faults.peeringdb_withheld = 0.15;
  config.faults.dns_withheld = 0.1;
  config.faults.geoip_withheld = 0.1;
  config.faults.seed = 13;

  const CfsReport r1 = run_tiny(config);
  const CfsReport r2 = run_tiny(config);
  expect_reports_identical(r1, r2);
  // The faulted run really did inject something.
  EXPECT_TRUE(r1.metrics.faults.probes_abandoned > 0 ||
              r1.metrics.faults.probes_skipped_open_circuit > 0 ||
              r1.metrics.faults.retries > 0 ||
              r1.metrics.faults.probe_timeouts > 0);
  EXPECT_GT(r1.metrics.faults.records_withheld, 0u);
  expect_invariant(r1.metrics.faults);
}

TEST(FaultDeterminism, FaultSeedChangesTheSchedule) {
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.max_iterations = 4;
  config.faults.lg_outage_fraction = 0.5;
  config.faults.vp_churn_fraction = 0.3;
  config.faults.probe_timeout_rate = 0.2;
  config.faults.seed = 1;
  const CfsReport r1 = run_tiny(config);
  config.faults.seed = 2;
  const CfsReport r2 = run_tiny(config);
  JsonValue j1 = report_to_json(r1);
  JsonValue j2 = report_to_json(r2);
  j1.as_object().erase("metrics");
  j2.as_object().erase("metrics");
  EXPECT_NE(j1.pretty(), j2.pretty());
}

TEST(FaultDeterminism, HeavyFaultsDegradeWithoutCrashing) {
  // The acceptance bar: 50% LG outage + 20% VP churn completes cleanly and
  // accounts for every probe.
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.max_iterations = 4;
  config.faults.lg_outage_fraction = 0.5;
  config.faults.vp_churn_fraction = 0.2;
  config.faults.probe_timeout_rate = 0.1;
  config.faults.peeringdb_withheld = 0.2;
  config.faults.lg_ban_burst = 3;
  config.faults.seed = 5;

  const CfsReport report = run_tiny(config);
  expect_invariant(report.metrics.faults);
  EXPECT_GT(report.metrics.faults.traces_kept, 0u);
}

}  // namespace
}  // namespace cfs
