// Centralized fault-injection plane for the measurement substrate.
//
// The paper's campaign ran against infrastructure that fails in ways the
// simulator's benign noise model (per-hop loss, jitter) never exercises:
// looking glasses go offline or ban bursty clients (the Section 3.2
// etiquette exists because they do), Atlas-style vantage points churn
// mid-campaign, probes time out rather than vanish, and the public data
// sources are stale or partially missing at snapshot time. FaultPlan
// describes such a failure schedule; FaultPlane executes it
// deterministically from a single seed so a faulted experiment replays
// byte-for-byte.
//
// Per-entity decisions (which LG has an outage, when a VP dies) are pure
// hashes of (seed, entity id), independent of query order; probe-timeout
// draws come from a per-trace stream minted from (seed, trace stream id).
// Only rate-limit ban bookkeeping carries state, and it advances in the
// deterministic order the campaign's serial pass executes. A
// zero-intensity plan is the identity: every query path is guarded so no
// RNG draw is consumed and no behaviour changes (Pipeline does not even
// construct a FaultPlane).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"

namespace cfs {

// Mitigation parameters: how the campaign responds to injected faults.
// Only consulted on fault paths, so values are inert without a plan.
struct RetryPolicy {
  int max_retries = 2;                  // extra attempts per failed probe
  double backoff_base_s = 5.0;          // first retry delay (virtual time)
  double backoff_multiplier = 2.0;      // exponential growth per retry
  double backoff_jitter_fraction = 0.25;  // uniform extra delay, de-syncs retries
  int circuit_threshold = 3;            // consecutive LG failures to open
  double circuit_reset_s = 1800.0;      // open -> half-open after this long
};

struct FaultPlan {
  // Looking-glass outages: each LG independently suffers one offline
  // window, starting uniformly within the horizon.
  double lg_outage_fraction = 0.0;
  double lg_outage_start_horizon_s = 3600.0;
  double lg_outage_duration_s = 1800.0;

  // Hard rate-limit bans: more than lg_ban_burst queries to one LG within
  // the window trips a ban for lg_ban_duration_s. 0 disables.
  int lg_ban_burst = 0;
  double lg_ban_window_s = 300.0;
  double lg_ban_duration_s = 3600.0;

  // Vantage-point churn: each non-LG VP independently dies at a uniform
  // instant within the horizon; its remaining probes fail for good.
  double vp_churn_fraction = 0.0;
  double vp_churn_horizon_s = 7200.0;

  // Probe timeouts, distinct from loss: the hop existed and the probe was
  // sent, but no reply arrived within the timer.
  double probe_timeout_rate = 0.0;

  // Data-source degradation at snapshot time: fraction of records withheld
  // from the assembled facility database / reverse DNS / geolocation.
  double peeringdb_withheld = 0.0;
  double dns_withheld = 0.0;
  double geoip_withheld = 0.0;

  RetryPolicy retry;
  std::uint64_t seed = 0;  // mixed with the pipeline seed

  // True when any fault intensity is non-zero; a plan that fails this is
  // the identity and costs nothing.
  [[nodiscard]] bool any() const;
};

// Measurement-plane attrition and mitigation accounting. Filled by
// MeasurementCampaign (and the data-source degradation pass), snapshotted
// onto CfsMetrics so reports show what the fault plane did. Invariant:
//   traces_attempted == traces_kept + traces_unreachable
//                       + probes_abandoned + probes_skipped_open_circuit.
struct FaultMetrics {
  std::size_t traces_attempted = 0;
  std::size_t traces_kept = 0;
  std::size_t traces_unreachable = 0;  // completed but empty (dropped)
  std::size_t retries = 0;             // backoff re-attempts performed
  std::size_t failovers = 0;           // work moved to a same-metro VP
  std::size_t circuits_opened = 0;     // LG breakers tripped (incl. re-opens)
  std::size_t probes_abandoned = 0;    // retried out / VP dead, no failover
  std::size_t probes_skipped_open_circuit = 0;
  std::size_t probe_timeouts = 0;      // hops that timed out (engine-side)
  std::size_t lg_bans = 0;             // rate-limit bans tripped
  std::size_t records_withheld = 0;    // data-source records withheld

  // Wall-clock time the campaign spent executing (real time, not virtual
  // campaign seconds). Excluded from equality: two runs that did identical
  // work at different speeds are the same experiment.
  double wall_ms = 0.0;

  friend bool operator==(const FaultMetrics& a, const FaultMetrics& b) {
    return a.traces_attempted == b.traces_attempted &&
           a.traces_kept == b.traces_kept &&
           a.traces_unreachable == b.traces_unreachable &&
           a.retries == b.retries && a.failovers == b.failovers &&
           a.circuits_opened == b.circuits_opened &&
           a.probes_abandoned == b.probes_abandoned &&
           a.probes_skipped_open_circuit == b.probes_skipped_open_circuit &&
           a.probe_timeouts == b.probe_timeouts && a.lg_bans == b.lg_bans &&
           a.records_withheld == b.records_withheld;
  }
};

class FaultPlane {
 public:
  FaultPlane(const FaultPlan& plan, std::uint64_t seed);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  // Mixed seed, for consumers needing their own derived stream (backoff
  // jitter) without touching the plane's RNG state.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Scheduled outage window check for a looking glass (by hosting router).
  [[nodiscard]] bool lg_offline(RouterId lg, double now_s) const;

  // Currently serving a rate-limit ban?
  [[nodiscard]] bool lg_banned(RouterId lg, double now_s) const;

  // Burst bookkeeping for an executed query; trips a ban when the window
  // budget is exceeded. Call once per actual LG query, in virtual-time
  // order (the campaign clock is monotonic).
  void record_lg_query(RouterId lg, double now_s);

  // Has this (non-LG) vantage point died by now?
  [[nodiscard]] bool vp_dead(VantagePointId vp, double now_s) const;
  // Scheduled death instant, or a negative value when the VP never churns.
  [[nodiscard]] double vp_death_s(VantagePointId vp) const;

  // Per-probe timeout draw from a caller-held stream (see timeout_stream),
  // so parallel workers evaluate timeouts for disjoint traces without
  // sharing state. Consumes a draw only when the rate is positive, so a
  // zero-rate plane never perturbs anything.
  [[nodiscard]] bool probe_times_out(Rng& rng) const;

  // Mint the per-trace timeout stream for a seeded trace. Pure: equal
  // (plane seed, stream) always yields the same Rng.
  [[nodiscard]] Rng timeout_stream(std::uint64_t stream) const;

  // Snapshot-time degradation decision for a data-source record, keyed by
  // an arbitrary stable id; pure hash, order-independent.
  [[nodiscard]] bool withhold_record(double fraction, std::uint64_t record_key) const;

  [[nodiscard]] std::size_t bans_tripped() const { return bans_tripped_; }

 private:
  struct BanState {
    std::vector<double> recent;  // query times inside the burst window
    double banned_until = -1.0;
  };

  [[nodiscard]] std::uint64_t mix(std::uint64_t id, std::uint64_t salt) const;
  [[nodiscard]] double frac(std::uint64_t id, std::uint64_t salt) const;

  FaultPlan plan_;
  std::uint64_t seed_;
  std::unordered_map<std::uint32_t, BanState> bans_;
  std::size_t bans_tripped_ = 0;
};

// --- transport chaos plane ------------------------------------------------
//
// Where FaultPlan degrades the *measurement* substrate, SocketFaultPlan
// degrades the *serve transport*: the byte stream between a client and the
// resident daemon (src/serve/). The schedule is consumed client-side — a
// misbehaving test client asks the plane how to deliver each request — so
// the daemon under test sees real torn frames, dribbled bytes, stalled
// reads and mid-request disconnects on a real socket. Decisions are pure
// hashes of (seed, connection, request ordinal), independent of wall
// clock and of what the daemon does, so a chaos soak replays exactly.
struct SocketFaultPlan {
  // Fraction of requests whose frame is written one byte per send().
  double byte_write_fraction = 0.0;
  // Fraction of requests whose frame is torn: a strict prefix is written,
  // then the connection closes. No response is owed for a torn request.
  double torn_frame_fraction = 0.0;
  // Fraction of requests fully written whose client vanishes before
  // reading the response (mid-request disconnect: the answer is in flight
  // or computing when the peer goes away).
  double disconnect_fraction = 0.0;
  // Fraction of requests with a stall (virtual slow sender) injected
  // before one of the write chunks, and how long it lasts.
  double stall_fraction = 0.0;
  double stall_ms = 20.0;
  // Fraction of requests where the client delays *reading* the response
  // (slow-loris receiver) by stall_ms.
  double read_stall_fraction = 0.0;
  std::uint64_t seed = 0;

  [[nodiscard]] bool any() const;
};

// Delivery schedule for one request frame: a partition of its bytes into
// send() chunks plus the misbehaviour to act out around them.
struct SocketWritePlan {
  static constexpr std::size_t kNoTruncate =
      std::numeric_limits<std::size_t>::max();

  std::vector<std::size_t> chunks;  // partition of the frame (sums to size,
                                    // or to truncate_at when torn)
  // Torn frame: stop after this many bytes and close. kNoTruncate = whole.
  std::size_t truncate_at = kNoTruncate;
  int stall_before_chunk = -1;  // sleep stall_ms before this chunk; -1 none
  double stall_ms = 0.0;
  bool disconnect_before_read = false;  // close instead of reading the reply
  double read_stall_ms = 0.0;           // delay before reading the reply

  [[nodiscard]] bool torn() const { return truncate_at != kNoTruncate; }
  // True when the daemon owes (and the client will read) a response.
  [[nodiscard]] bool expects_response() const {
    return !torn() && !disconnect_before_read;
  }
};

class SocketFaultPlane {
 public:
  SocketFaultPlane(const SocketFaultPlan& plan, std::uint64_t seed);

  [[nodiscard]] const SocketFaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // The delivery schedule for request `request` on connection `conn` whose
  // encoded frame is `frame_bytes` long. Pure: equal (plane seed, conn,
  // request, frame_bytes) always yields the same plan, so schedules can be
  // minted from any thread in any order. A zero-intensity plan yields the
  // identity schedule: one chunk, no stall, no truncation, no disconnect.
  [[nodiscard]] SocketWritePlan write_plan(std::uint64_t conn,
                                           std::uint64_t request,
                                           std::size_t frame_bytes) const;

 private:
  [[nodiscard]] double frac(std::uint64_t conn, std::uint64_t request,
                            std::uint64_t salt) const;

  SocketFaultPlan plan_;
  std::uint64_t seed_;
};

}  // namespace cfs
