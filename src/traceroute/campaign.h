// Measurement-campaign orchestration.
//
// Runs traceroute batches across vantage points while respecting the
// operational etiquette described in the paper (Section 3.2): looking
// glasses enforce a 60 s cool-down per query, while an Atlas-style
// campaign to a single target completes in ~5 minutes of wall time. The
// campaign tracks virtual elapsed time so experiments can report the cost
// of their probing the way the paper does.
//
// Under a FaultPlane the campaign also has to *survive* the measurement
// substrate failing: a probe that hits an offline or rate-limit-banned
// looking glass is retried with exponential backoff + jitter; consecutive
// failures open a per-LG circuit breaker (half-open after a reset window);
// work whose vantage point is unavailable fails over once to another VP in
// the same metro; what cannot be salvaged is abandoned and *accounted*,
// never silently dropped:
//   attempted == kept + unreachable + abandoned + skipped-by-open-circuit.
// Without a plane every fault path is dead code and behaviour is
// byte-identical to the pre-fault-plane campaign.
//
// Parallelism (docs/PARALLELISM.md): every executed trace draws all of its
// noise from a stream id hash(vp, target, repeat#), so its result is a pure
// function of that id. run() is one serial pass (clock, cool-downs, circuit
// breakers, accounting) over windows of targets. With a thread pool
// attached, each window is first *speculated* — the traces the pass will
// want are computed in parallel into a stream-keyed cache — and the pass
// then consumes cache hits instead of recomputing. Because the cache is
// keyed by stream id and trace execution is pure, output is byte-identical
// at every thread count and window size; with no pool the pass simply
// computes each trace on demand. Windows bound the predictions in flight,
// so campaign memory does not grow with the corpus (docs/SCALE.md): a
// caller sink receives each kept trace as the pass keeps it. probe() over a
// list of units (CFS Step 4) is the same pass: one speculation of the whole
// list, then a serial replay unit by unit. A speculated hit reaches the
// pass as an exact-size copy made on the calling thread, so kept traces
// never hold the workers' hop vectors with their growth slack.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/looking_glass.h"
#include "net/faults.h"
#include "traceroute/engine.h"
#include "util/thread_pool.h"

namespace cfs {

// One (vantage point, target) traceroute. CFS Step 4 plans its follow-up
// and reverse probes as an ordered list of these and probes the list in
// one call; run() speculates its windows as lists of these too.
struct ProbeUnit {
  const VantagePoint* vp;
  Ipv4 target;
};

class MeasurementCampaign {
 public:
  MeasurementCampaign(const Topology& topo, TracerouteEngine& engine,
                      LookingGlassDirectory& lgs,
                      FaultPlane* faults = nullptr);

  // Attach a worker pool: run() speculates each window of traces, and
  // probe() each unit list, in parallel before the serial pass over it.
  // Null (the default) disables speculation; the serial pass then computes
  // every trace itself — same results either way.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] ThreadPool* pool() const { return pool_; }

  // Receives every trace the campaign keeps, in serial keep-order, with the
  // vantage point that executed it (the failover VP when the unit failed
  // over).
  using KeepSink = std::function<void(const VantagePoint&, TraceResult&&)>;

  // Traceroutes from every given vantage point to every target, each kept
  // trace handed to `keep`. Looking glass vantage points are serialised per
  // cool-down; others run in parallel batches. Unreachable traces (empty
  // hop list) are dropped but counted. With a fault plane, the given span
  // doubles as the failover pool (grouped by metro).
  void run(std::span<const VantagePoint* const> vps,
           const std::vector<Ipv4>& targets, const KeepSink& keep);

  // Convenience wrapper: the kept traces, in keep-order.
  std::vector<TraceResult> run(std::span<const VantagePoint* const> vps,
                               const std::vector<Ipv4>& targets);

  // Single measurement convenience (advances the clock minimally). A dead
  // or unavailable VP fails over through the pool of the last faulted
  // run() — so CFS follow-ups can fail over to a VP of the initial
  // campaign in the same metro — and before any such run() the probe is
  // abandoned. A probe with no usable VP returns an empty trace.
  TraceResult probe(const VantagePoint& vp, Ipv4 target);

  // probe() of every unit in list order, one result per unit, with the
  // same clock, cool-downs, failovers and accounting. With a pool
  // attached the whole list is speculated first, so the serial replay
  // mostly consumes precomputed traces; the results are the same either
  // way.
  std::vector<TraceResult> probe(std::span<const ProbeUnit> units);

  [[nodiscard]] double virtual_elapsed_s() const { return clock_s_; }
  [[nodiscard]] std::size_t traces_attempted() const {
    return stats_.traces_attempted;
  }
  [[nodiscard]] std::size_t traces_kept() const { return stats_.traces_kept; }
  // Full measurement-plane attrition accounting (see net/faults.h).
  [[nodiscard]] const FaultMetrics& fault_stats() const { return stats_; }
  // Executions served from the speculation cache; 0 without a pool.
  [[nodiscard]] std::size_t speculation_hits() const {
    return speculation_hits_;
  }

  // One probe-able destination address inside every announced prefix of the
  // AS — the paper's "one active IP per prefix" target list.
  static std::vector<Ipv4> targets_for(const Topology& topo, Asn asn);

 private:
  // Per-LG circuit breaker, keyed by the hosting router.
  struct LgHealth {
    int consecutive_failures = 0;
    bool open = false;
    double opened_at = 0.0;
  };
  enum class ProbeFault { None, LgUnavailable, VpDead, CircuitOpen };
  enum class UnitOutcome { Kept, Unreachable, Abandoned, SkippedOpenCircuit };

  // One unit of work (vp, target) end to end: preflight, retries with
  // backoff, at most one failover, trace execution, accounting. Exactly
  // one outcome counter is bumped per call. `batched` is the run() batch
  // flag; null on the probe() path (clock advances per trace instead).
  // A kept trace goes to `keep`.
  UnitOutcome run_unit(const VantagePoint& vp, Ipv4 target, bool* batched,
                       const KeepSink& keep);

  [[nodiscard]] ProbeFault preflight(const VantagePoint& vp);
  void lg_failure(const VantagePoint& vp);
  void lg_success(const VantagePoint& vp);
  [[nodiscard]] double backoff_s(int attempt);
  // Clock bookkeeping + the actual traceroute (the pre-fault hot path).
  TraceResult execute(const VantagePoint& vp, Ipv4 target, bool* batched);
  [[nodiscard]] const VantagePoint* pick_failover(const VantagePoint& failed);
  [[nodiscard]] MetroId metro_of(const VantagePoint& vp) const;
  // Parallel pre-computation of the traces the serial pass will consume
  // over one list of units: a run() window or a probe() list.
  void speculate(std::span<const ProbeUnit> units);

  const Topology& topo_;
  TracerouteEngine& engine_;
  LookingGlassDirectory& lgs_;
  FaultPlane* faults_ = nullptr;
  double clock_s_ = 0.0;
  FaultMetrics stats_;
  std::unordered_map<std::uint32_t, LgHealth> lg_health_;
  // Failover pool for the current run(): metro -> usable vantage points.
  std::unordered_map<std::uint32_t, std::vector<const VantagePoint*>>
      by_metro_;
  Rng jitter_rng_;  // drawn only on fault paths

  ThreadPool* pool_ = nullptr;
  // Per-(vp, target) execution counter; the repeat number makes each
  // execution of the same unit a distinct noise stream, replayed in the
  // same order by serial and speculative passes alike.
  std::unordered_map<std::uint64_t, std::uint32_t> repeats_;
  // Speculated results, keyed by stream id. Entries are consumed (erased)
  // on hit; a prediction the serial pass never asks for is simply dropped.
  std::unordered_map<std::uint64_t, TraceResult> speculative_;
  std::size_t speculation_hits_ = 0;

  static constexpr double parallel_batch_s = 300.0;  // Atlas full campaign
  static constexpr double single_trace_s = 30.0;
};

}  // namespace cfs
