#include "net/faults.h"

#include <algorithm>

#include "util/trace.h"

namespace cfs {

bool FaultPlan::any() const {
  return lg_outage_fraction > 0.0 || lg_ban_burst > 0 ||
         vp_churn_fraction > 0.0 || probe_timeout_rate > 0.0 ||
         peeringdb_withheld > 0.0 || dns_withheld > 0.0 ||
         geoip_withheld > 0.0;
}

FaultPlane::FaultPlane(const FaultPlan& plan, std::uint64_t seed)
    : plan_(plan), seed_(mix64(seed ^ plan.seed)) {}

std::uint64_t FaultPlane::mix(std::uint64_t id, std::uint64_t salt) const {
  return mix64(seed_ ^ mix64(id ^ (salt << 32)));
}

double FaultPlane::frac(std::uint64_t id, std::uint64_t salt) const {
  return unit_interval(mix(id, salt));
}

bool FaultPlane::lg_offline(RouterId lg, double now_s) const {
  if (plan_.lg_outage_fraction <= 0.0) return false;
  if (frac(lg.value, 1) >= plan_.lg_outage_fraction) return false;
  const double start = frac(lg.value, 2) * plan_.lg_outage_start_horizon_s;
  return now_s >= start && now_s < start + plan_.lg_outage_duration_s;
}

bool FaultPlane::lg_banned(RouterId lg, double now_s) const {
  if (plan_.lg_ban_burst <= 0) return false;
  const auto it = bans_.find(lg.value);
  return it != bans_.end() && now_s < it->second.banned_until;
}

void FaultPlane::record_lg_query(RouterId lg, double now_s) {
  if (plan_.lg_ban_burst <= 0) return;
  BanState& state = bans_[lg.value];
  if (now_s < state.banned_until) return;  // queries during a ban are refused
  auto& recent = state.recent;
  recent.erase(std::remove_if(recent.begin(), recent.end(),
                              [&](double t) {
                                return t <= now_s - plan_.lg_ban_window_s;
                              }),
               recent.end());
  recent.push_back(now_s);
  if (recent.size() > static_cast<std::size_t>(plan_.lg_ban_burst)) {
    state.banned_until = now_s + plan_.lg_ban_duration_s;
    state.recent.clear();
    ++bans_tripped_;
    Trace::counter("faults.lg_bans_tripped");
  }
}

bool FaultPlane::vp_dead(VantagePointId vp, double now_s) const {
  const double death = vp_death_s(vp);
  return death >= 0.0 && now_s >= death;
}

double FaultPlane::vp_death_s(VantagePointId vp) const {
  if (plan_.vp_churn_fraction <= 0.0) return -1.0;
  if (frac(vp.value, 3) >= plan_.vp_churn_fraction) return -1.0;
  return frac(vp.value, 4) * plan_.vp_churn_horizon_s;
}

bool FaultPlane::probe_times_out(Rng& rng) const {
  if (plan_.probe_timeout_rate <= 0.0) return false;
  return rng.chance(plan_.probe_timeout_rate);
}

Rng FaultPlane::timeout_stream(std::uint64_t stream) const {
  return Rng(mix64(seed_ ^ 0x7107) ^ mix64(stream ^ 0x70a5));
}

bool FaultPlane::withhold_record(double fraction,
                                 std::uint64_t record_key) const {
  if (fraction <= 0.0) return false;
  const bool withheld = unit_interval(mix(record_key, 5)) < fraction;
  if (withheld) Trace::counter("faults.records_withheld");
  return withheld;
}

// --- transport chaos plane ------------------------------------------------

bool SocketFaultPlan::any() const {
  return byte_write_fraction > 0.0 || torn_frame_fraction > 0.0 ||
         disconnect_fraction > 0.0 || stall_fraction > 0.0 ||
         read_stall_fraction > 0.0;
}

SocketFaultPlane::SocketFaultPlane(const SocketFaultPlan& plan,
                                   std::uint64_t seed)
    : plan_(plan), seed_(mix64(seed ^ plan.seed ^ 0x50cfau)) {}

double SocketFaultPlane::frac(std::uint64_t conn, std::uint64_t request,
                              std::uint64_t salt) const {
  return unit_interval(
      mix64(seed_ ^ mix64(conn ^ (salt << 40)) ^ mix64(request ^ (salt << 8))));
}

SocketWritePlan SocketFaultPlane::write_plan(std::uint64_t conn,
                                             std::uint64_t request,
                                             std::size_t frame_bytes) const {
  SocketWritePlan out;
  if (frame_bytes == 0) return out;
  if (!plan_.any()) {
    out.chunks.push_back(frame_bytes);
    return out;
  }

  // A derived stream keyed by (conn, request): the chunk partition can
  // draw as many values as it likes without perturbing other requests.
  Rng rng(mix64(seed_ ^ mix64(conn ^ 0xc0ffee) ^ mix64(request ^ 0xfeed)));

  std::size_t to_send = frame_bytes;
  if (plan_.torn_frame_fraction > 0.0 &&
      frac(conn, request, 11) < plan_.torn_frame_fraction) {
    // A strict prefix: at least one byte short so the daemon is left with
    // a partial frame when the connection dies.
    out.truncate_at = frame_bytes > 1
                          ? 1 + rng.uniform(frame_bytes - 1)
                          : 0;
    to_send = out.truncate_at;
  }

  const bool byte_at_a_time =
      plan_.byte_write_fraction > 0.0 &&
      frac(conn, request, 12) < plan_.byte_write_fraction;
  if (byte_at_a_time) {
    out.chunks.assign(to_send, 1);
  } else if (to_send > 0) {
    // 1..4 random cuts: partial headers, frame spread over several reads.
    std::size_t cuts = rng.uniform(4);
    std::size_t remaining = to_send;
    while (cuts > 0 && remaining > 1) {
      const std::size_t take = 1 + rng.uniform(remaining - 1);
      out.chunks.push_back(take);
      remaining -= take;
      --cuts;
    }
    if (remaining > 0) out.chunks.push_back(remaining);
  }

  if (plan_.stall_fraction > 0.0 && !out.chunks.empty() &&
      frac(conn, request, 13) < plan_.stall_fraction) {
    out.stall_before_chunk =
        static_cast<int>(rng.uniform(out.chunks.size()));
    out.stall_ms = plan_.stall_ms;
  }
  if (!out.torn() && plan_.disconnect_fraction > 0.0 &&
      frac(conn, request, 14) < plan_.disconnect_fraction)
    out.disconnect_before_read = true;
  if (out.expects_response() && plan_.read_stall_fraction > 0.0 &&
      frac(conn, request, 15) < plan_.read_stall_fraction)
    out.read_stall_ms = plan_.stall_ms;
  return out;
}

}  // namespace cfs
