#include "traceroute/campaign.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/rng.h"
#include "util/trace.h"

namespace cfs {

namespace {

// Stable key for one unit of work.
std::uint64_t unit_key(VantagePointId vp, Ipv4 target) {
  return (static_cast<std::uint64_t>(vp.value) << 32) ^ target.value();
}

// Noise-stream id for the repeat-th execution of a unit. Everything a
// trace draws (loss, jitter, injected timeouts) derives from this value,
// which is why a speculated result equals a serially-computed one.
std::uint64_t unit_stream(std::uint64_t key, std::uint32_t repeat) {
  return mix64(mix64(key) ^ (static_cast<std::uint64_t>(repeat) + 0x51ab));
}

}  // namespace

MeasurementCampaign::MeasurementCampaign(const Topology& topo,
                                         TracerouteEngine& engine,
                                         LookingGlassDirectory& lgs,
                                         FaultPlane* faults)
    : topo_(topo),
      engine_(engine),
      lgs_(lgs),
      faults_(faults),
      jitter_rng_(faults != nullptr ? (faults->seed() ^ 0xbac0ffULL) : 0) {}

MetroId MeasurementCampaign::metro_of(const VantagePoint& vp) const {
  return topo_.metro_of(topo_.router(vp.attach).facility);
}

std::vector<TraceResult> MeasurementCampaign::run(
    std::span<const VantagePoint* const> vps,
    const std::vector<Ipv4>& targets) {
  std::vector<TraceResult> out;
  run(vps, targets, [&out](const VantagePoint&, TraceResult&& trace) {
    out.push_back(std::move(trace));
  });
  return out;
}

void MeasurementCampaign::run(std::span<const VantagePoint* const> vps,
                              const std::vector<Ipv4>& targets,
                              const KeepSink& keep) {
  TraceSpan span("campaign.run");
  span.arg("vps", vps.size());
  span.arg("targets", targets.size());
  const std::size_t kept_before = stats_.traces_kept;
  if (faults_ != nullptr) {
    by_metro_.clear();
    for (const VantagePoint* vp : vps)
      by_metro_[metro_of(*vp).value].push_back(vp);
  }
  // Speculate over bounded windows of targets so predictions in flight —
  // not the whole corpus — bound campaign memory. The window boundary is
  // invisible to the serial pass: it only decides when cache entries are
  // precomputed, never what the pass executes. 2048 units keeps the
  // resident window under ~2 MB at paper-scale trace sizes while a window
  // is still dozens of times the pool's worker count, so speculation
  // throughput is unaffected.
  constexpr std::size_t kSpeculationWindowUnits = 2048;
  const std::size_t block =
      pool_ != nullptr
          ? std::max<std::size_t>(
                1, kSpeculationWindowUnits / std::max<std::size_t>(1, vps.size()))
          : targets.size();
  std::vector<ProbeUnit> units;
  for (std::size_t t0 = 0; t0 < targets.size(); t0 += block) {
    const std::span<const Ipv4> window(targets.data() + t0,
                                       std::min(block, targets.size() - t0));
    if (pool_ != nullptr) {
      // The units of this window in the pass's target-major order.
      units.clear();
      for (const Ipv4 target : window)
        for (const VantagePoint* vp : vps) units.push_back({vp, target});
      speculate(units);
    }
    for (const Ipv4 target : window) {
      bool used_parallel_batch = false;
      for (const VantagePoint* vp : vps) {
        ++stats_.traces_attempted;
        Trace::counter("campaign.traces_attempted");
        run_unit(*vp, target, &used_parallel_batch, keep);
      }
      if (used_parallel_batch) clock_s_ += parallel_batch_s;
    }
  }
  speculative_.clear();
  span.arg("traces", stats_.traces_kept - kept_before);
  stats_.wall_ms += span.stop();
}

void MeasurementCampaign::speculate(std::span<const ProbeUnit> units) {
  // Predict the stream id of every unit the serial pass will execute on
  // its happy path, walking units in the pass's order. The prediction can
  // be wrong — failovers and abandoned units shift repeat counters — but
  // never incorrect: the cache is keyed by stream id and trace execution
  // is a pure function of it, so a mispredicted unit just misses and is
  // computed serially. The prediction counters hold only this list's keys,
  // each starting from the unit's real counter (which bumps at execute()).
  std::vector<std::uint64_t> streams;
  streams.reserve(units.size());
  std::unordered_map<std::uint64_t, std::uint32_t> predicted;
  predicted.reserve(units.size());
  for (const ProbeUnit& unit : units) {
    const std::uint64_t key = unit_key(unit.vp->id, unit.target);
    const auto [it, first] = predicted.try_emplace(key, 0);
    if (first) {
      if (const auto real = repeats_.find(key); real != repeats_.end())
        it->second = real->second;
    }
    streams.push_back(unit_stream(key, it->second++));
  }

  TraceSpan span("campaign.speculate");
  span.arg("units", units.size());
  std::vector<TraceResult> results(units.size());
  pool_->parallel_for_chunks(
      units.size(), [&](std::size_t begin, std::size_t end) {
        TraceSpan chunk("campaign.speculate_chunk");
        chunk.arg("begin", begin);
        chunk.arg("count", end - begin);
        for (std::size_t i = begin; i < end; ++i)
          results[i] = engine_.trace_seeded(*units[i].vp, units[i].target,
                                            streams[i]);
      });

  // These results replace what the previous list left unconsumed; should
  // the pass still want such a stream, it misses and computes it serially.
  speculative_.clear();
  speculative_.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i)
    speculative_.emplace(streams[i], std::move(results[i]));
}

std::vector<TraceResult> MeasurementCampaign::probe(
    std::span<const ProbeUnit> units) {
  if (pool_ != nullptr && !units.empty()) speculate(units);
  std::vector<TraceResult> out;
  out.reserve(units.size());
  for (const ProbeUnit& unit : units)
    out.push_back(probe(*unit.vp, unit.target));
  speculative_.clear();
  return out;
}

TraceResult MeasurementCampaign::probe(const VantagePoint& vp, Ipv4 target) {
  ++stats_.traces_attempted;
  Trace::counter("campaign.traces_attempted");
  std::optional<TraceResult> out;
  run_unit(vp, target, nullptr,
           [&out](const VantagePoint&, TraceResult&& trace) {
             out = std::move(trace);
           });
  if (out) return std::move(*out);
  TraceResult empty;
  empty.vp = vp.id;
  empty.target = target;
  return empty;
}

MeasurementCampaign::UnitOutcome MeasurementCampaign::run_unit(
    const VantagePoint& vp, Ipv4 target, bool* batched,
    const KeepSink& keep) {
  const RetryPolicy& policy =
      faults_ != nullptr ? faults_->plan().retry : RetryPolicy{};
  const VantagePoint* active = &vp;
  bool failed_over = false;
  int attempt = 0;
  while (true) {
    switch (preflight(*active)) {
      case ProbeFault::None: {
        TraceResult trace = execute(*active, target, batched);
        if (faults_ != nullptr &&
            active->platform == Platform::LookingGlass)
          lg_success(*active);
        if (trace.hops.empty()) {
          ++stats_.traces_unreachable;
          Trace::counter("campaign.traces_unreachable");
          return UnitOutcome::Unreachable;
        }
        stats_.probe_timeouts += trace.hops_timed_out;
        if (trace.hops_timed_out > 0)
          Trace::counter("campaign.probe_timeouts", trace.hops_timed_out);
        ++stats_.traces_kept;
        Trace::counter("campaign.traces_kept");
        keep(*active, std::move(trace));
        return UnitOutcome::Kept;
      }
      case ProbeFault::CircuitOpen:
        ++stats_.probes_skipped_open_circuit;
        Trace::counter("campaign.probes_skipped_open_circuit");
        return UnitOutcome::SkippedOpenCircuit;
      case ProbeFault::VpDead: {
        // Retrying a dead probe host is pointless; go straight to failover.
        const VantagePoint* alt =
            failed_over ? nullptr : pick_failover(*active);
        if (alt == nullptr) {
          ++stats_.probes_abandoned;
          Trace::counter("campaign.probes_abandoned");
          return UnitOutcome::Abandoned;
        }
        active = alt;
        failed_over = true;
        attempt = 0;
        ++stats_.failovers;
        Trace::counter("campaign.failovers");
        break;
      }
      case ProbeFault::LgUnavailable: {
        lg_failure(*active);
        if (attempt < policy.max_retries) {
          ++attempt;
          ++stats_.retries;
          Trace::counter("campaign.retries");
          clock_s_ += backoff_s(attempt);
          break;
        }
        const VantagePoint* alt =
            failed_over ? nullptr : pick_failover(*active);
        if (alt == nullptr) {
          ++stats_.probes_abandoned;
          Trace::counter("campaign.probes_abandoned");
          return UnitOutcome::Abandoned;
        }
        active = alt;
        failed_over = true;
        attempt = 0;
        ++stats_.failovers;
        Trace::counter("campaign.failovers");
        break;
      }
    }
  }
}

MeasurementCampaign::ProbeFault MeasurementCampaign::preflight(
    const VantagePoint& vp) {
  if (faults_ == nullptr) return ProbeFault::None;
  if (vp.platform == Platform::LookingGlass) {
    const auto it = lg_health_.find(vp.attach.value);
    if (it != lg_health_.end() && it->second.open) {
      const double open_for = clock_s_ - it->second.opened_at;
      if (open_for < faults_->plan().retry.circuit_reset_s)
        return ProbeFault::CircuitOpen;
      // Half-open: admit one trial query; a single failure re-opens.
      it->second.open = false;
      it->second.consecutive_failures =
          faults_->plan().retry.circuit_threshold - 1;
    }
    if (faults_->lg_offline(vp.attach, clock_s_) ||
        faults_->lg_banned(vp.attach, clock_s_))
      return ProbeFault::LgUnavailable;
  } else if (faults_->vp_dead(vp.id, clock_s_)) {
    return ProbeFault::VpDead;
  }
  return ProbeFault::None;
}

void MeasurementCampaign::lg_failure(const VantagePoint& vp) {
  LgHealth& health = lg_health_[vp.attach.value];
  ++health.consecutive_failures;
  if (!health.open &&
      health.consecutive_failures >= faults_->plan().retry.circuit_threshold) {
    health.open = true;
    health.opened_at = clock_s_;
    ++stats_.circuits_opened;
    Trace::counter("campaign.circuits_opened");
  }
}

void MeasurementCampaign::lg_success(const VantagePoint& vp) {
  const auto it = lg_health_.find(vp.attach.value);
  if (it == lg_health_.end()) return;
  it->second.consecutive_failures = 0;
  it->second.open = false;
}

double MeasurementCampaign::backoff_s(int attempt) {
  const RetryPolicy& policy = faults_->plan().retry;
  const double base =
      policy.backoff_base_s *
      std::pow(policy.backoff_multiplier, static_cast<double>(attempt - 1));
  return base * (1.0 + policy.backoff_jitter_fraction *
                           jitter_rng_.uniform01());
}

TraceResult MeasurementCampaign::execute(const VantagePoint& vp, Ipv4 target,
                                         bool* batched) {
  if (vp.platform == Platform::LookingGlass) {
    // Respect the per-LG cool-down: fast-forward the virtual clock to
    // the earliest allowed instant, as the paper's pipeline waits.
    const double ready = lgs_.next_allowed_s(vp.attach);
    clock_s_ = std::max(clock_s_, ready);
    lgs_.try_query(vp.attach, clock_s_);
    Trace::counter("campaign.lg_queries");
    if (faults_ != nullptr) {
      faults_->record_lg_query(vp.attach, clock_s_);
      stats_.lg_bans = faults_->bans_tripped();
    }
    clock_s_ += single_trace_s;
  } else if (batched != nullptr) {
    *batched = true;
  } else {
    clock_s_ += single_trace_s;
  }
  const std::uint64_t key = unit_key(vp.id, target);
  const std::uint64_t stream = unit_stream(key, repeats_[key]++);
  const auto it = speculative_.find(stream);
  if (it != speculative_.end()) {
    // Copy, not move: the copy's hop vector is exact-size and allocated on
    // this thread, while the worker's carries growth slack; a kept trace
    // outlives the campaign pass.
    TraceResult result = it->second;
    speculative_.erase(it);
    ++speculation_hits_;
    Trace::counter("campaign.speculation_hits");
    return result;
  }
  return engine_.trace_seeded(vp, target, stream);
}

const VantagePoint* MeasurementCampaign::pick_failover(
    const VantagePoint& failed) {
  const auto it = by_metro_.find(metro_of(failed).value);
  if (it == by_metro_.end()) return nullptr;
  for (const VantagePoint* cand : it->second) {
    if (cand->id.value == failed.id.value) continue;
    if (cand->attach.value == failed.attach.value) continue;
    if (preflight(*cand) == ProbeFault::None) return cand;
  }
  return nullptr;
}

std::vector<Ipv4> MeasurementCampaign::targets_for(const Topology& topo,
                                                   Asn asn) {
  std::vector<Ipv4> out;
  const auto& as = topo.as_of(asn);
  for (const Prefix& prefix : as.prefixes) {
    // Probe an address deep inside the block, skipping over any that happen
    // to be infrastructure interfaces.
    for (std::uint64_t probe = prefix.size() / 2;
         probe + 2 < prefix.size(); ++probe) {
      const Ipv4 cand = prefix.at(probe);
      if (topo.find_interface(cand) == nullptr) {
        out.push_back(cand);
        break;
      }
    }
  }
  return out;
}

}  // namespace cfs
