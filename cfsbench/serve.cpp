// serve_paper: a closed loop against an in-process Server holding the
// paper-scale report: two client connections, one thread each, against
// two server workers. Mix: 85% lookup (5% of them for addresses the
// report does not hold), 14% peers_at over facilities that hold
// interfaces, 1% ping, and one reload of the same exported report from
// client 0 every 2,000 requests (counted over both clients). It puts the
// query plane's reads beside its generation-publish writes; every answer
// is checked byte for byte against the batch export.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "io/export.h"
#include "serve/client.h"
#include "serve/handlers.h"
#include "serve/server.h"
#include "stats.h"
#include "util/rng.h"

namespace cfsbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kReloadEvery = 2000;
constexpr std::size_t kAbsentAddresses = 256;
constexpr std::size_t kHandlerReplays = 5000;
constexpr int kClientTimeoutMs = 30000;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

enum class Op { Lookup, LookupAbsent, PeersAt, Ping };

struct Draw {
  Op op = Op::Ping;
  std::size_t index = 0;
};

cfs::JsonValue request(const char* op) {
  cfs::JsonValue::Object o;
  o.emplace("op", op);
  return cfs::JsonValue(std::move(o));
}

cfs::JsonValue request(const char* op, const char* key, cfs::JsonValue value) {
  cfs::JsonValue::Object o;
  o.emplace("op", op);
  o.emplace(key, std::move(value));
  return cfs::JsonValue(std::move(o));
}

// The request mix, and the answer the batch export says each request
// must get, byte for byte.
class QueryMix {
 public:
  QueryMix(const cfs::ServeState& state, std::uint64_t seed) {
    using Array = cfs::JsonValue::Array;
    std::map<std::int64_t, std::pair<Array, Array>> at;  // members, links
    for (const cfs::JsonValue& entry :
         state.report_json.at("interfaces").as_array()) {
      lookups_.push_back(request("lookup", "ip", entry.at("address")));
      entries_.push_back(entry.dump());
      const cfs::JsonValue& candidates = entry.at("candidates");
      if (entry.at("has_constraint").as_bool() && candidates.size() == 1)
        at[candidates.at(0).as_int()].first.push_back(entry);
    }
    for (const cfs::JsonValue& link : state.report_json.at("links").as_array()) {
      const cfs::JsonValue& near = link.at("near_facility");
      const cfs::JsonValue& far = link.at("far_facility");
      std::vector<std::int64_t> touched;
      if (!near.is_null()) touched.push_back(near.as_int());
      if (!far.is_null() && (touched.empty() || far.as_int() != touched[0]))
        touched.push_back(far.as_int());
      for (const std::int64_t facility : touched) {
        const auto it = at.find(facility);
        if (it != at.end()) it->second.second.push_back(link);
      }
    }
    for (auto& [facility, answer] : at) {
      peers_at_.push_back(
          request("peers_at", "facility", cfs::JsonValue(facility)));
      members_.push_back(cfs::JsonValue(std::move(answer.first)).dump());
      links_.push_back(cfs::JsonValue(std::move(answer.second)).dump());
    }
    cfs::Rng rng(seed ^ 0xab5e47ull);
    while (absent_.size() < kAbsentAddresses) {
      const std::string address =
          cfs::Ipv4(static_cast<std::uint32_t>(rng.next())).to_string();
      if (!state.interface_index.contains(address))
        absent_.push_back(request("lookup", "ip", cfs::JsonValue(address)));
    }
    if (lookups_.empty() || peers_at_.empty())
      throw std::runtime_error("served report has no resolved interfaces");
  }

  [[nodiscard]] Draw draw(cfs::Rng& rng) const {
    const double u = rng.uniform01();
    if (u < 0.85) {
      if (rng.chance(0.05)) return {Op::LookupAbsent, rng.index(absent_.size())};
      return {Op::Lookup, rng.index(lookups_.size())};
    }
    if (u < 0.99) return {Op::PeersAt, rng.index(peers_at_.size())};
    return {Op::Ping, 0};
  }

  [[nodiscard]] const cfs::JsonValue& request_of(const Draw& d) const {
    switch (d.op) {
      case Op::Lookup:
        return lookups_[d.index];
      case Op::LookupAbsent:
        return absent_[d.index];
      case Op::PeersAt:
        return peers_at_[d.index];
      case Op::Ping:
        break;
    }
    return ping_;
  }

  // True when the response is `ok` and carries exactly the export's answer.
  [[nodiscard]] bool check(const Draw& d, const cfs::JsonValue& response) const {
    try {
      if (!response.at("ok").as_bool()) return false;
      const cfs::JsonValue& result = response.at("result");
      switch (d.op) {
        case Op::Lookup:
          return result.at("found").as_bool() &&
                 result.at("interface").dump() == entries_[d.index];
        case Op::LookupAbsent:
          return !result.at("found").as_bool();
        case Op::PeersAt:
          return result.at("members").dump() == members_[d.index] &&
                 result.at("links").dump() == links_[d.index];
        case Op::Ping:
          return true;
      }
    } catch (const std::exception&) {
      // A malformed response fails the check below.
    }
    return false;
  }

 private:
  std::vector<cfs::JsonValue> lookups_;
  std::vector<cfs::JsonValue> absent_;
  std::vector<cfs::JsonValue> peers_at_;
  cfs::JsonValue ping_ = request("ping");
  std::vector<std::string> entries_;
  std::vector<std::string> members_;
  std::vector<std::string> links_;
};

// An in-process daemon on its own thread; drained and joined by stop()
// or on destruction.
class LocalServer {
 public:
  LocalServer(std::string socket, std::shared_ptr<const cfs::ServeState> state) {
    cfs::ServeOptions options;
    options.socket_path = std::move(socket);
    options.threads = kServeWorkers;
    options.install_signal_handlers = false;
    server_ = std::make_unique<cfs::Server>(std::move(options), std::move(state));
    thread_ = std::thread([this] {
      try {
        (void)server_->run();
      } catch (const std::exception& error) {
        std::cerr << "cfsbench: server: " << error.what() << "\n";
        died_ = true;
      }
    });
    if (!wait_ready()) {
      stop();
      throw std::runtime_error("daemon never came up on " + socket_path());
    }
  }
  ~LocalServer() { stop(); }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  [[nodiscard]] const std::string& socket_path() const {
    return server_->socket_path();
  }

  void stop() {
    if (!thread_.joinable()) return;
    if (!died_) {
      try {
        cfs::ServeClient admin;
        admin.set_timeout_ms(kClientTimeoutMs);
        admin.connect(socket_path());
        (void)admin.request(request("shutdown"));
      } catch (const std::exception&) {
        server_->request_shutdown();
      }
    }
    thread_.join();
  }

 private:
  bool wait_ready() {
    for (int attempt = 0; attempt < 1000 && !died_; ++attempt) {
      try {
        cfs::ServeClient probe;
        probe.connect(socket_path());
        return true;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    return false;
  }

  std::unique_ptr<cfs::Server> server_;
  std::atomic<bool> died_{false};
  std::thread thread_;  // last: it uses the members above
};

struct LoopStats {
  std::vector<double> lookup_us;
  std::vector<double> peers_at_us;
  std::vector<double> request_us;  // every query op, reloads excluded
  std::vector<double> reload_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;

  void merge(const LoopStats& other) {
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(lookup_us, other.lookup_us);
    append(peers_at_us, other.peers_at_us);
    append(request_us, other.request_us);
    append(reload_ms, other.reload_ms);
    attempted += other.attempted;
    failed += other.failed;
  }
};

bool reloaded(const cfs::JsonValue& response, std::uint64_t generation) {
  try {
    return response.at("ok").as_bool() &&
           response.at("result").at("generation").as_uint() == generation;
  } catch (const std::exception&) {
    return false;
  }
}

// Closed loop: each client sends its next request only after the last
// answer arrived. Failed requests count against attempted and carry no
// latency sample.
LoopStats closed_loop(const std::string& socket, const QueryMix& mix,
                      const cfs::JsonValue& reload, std::uint64_t seed,
                      double seconds) {
  std::vector<LoopStats> per_client(kServeClients);
  std::atomic<std::uint64_t> answered{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      LoopStats& s = per_client[static_cast<std::size_t>(c)];
      cfs::Rng rng = cfs::Rng(seed).fork(static_cast<std::uint64_t>(c));
      std::uint64_t generation = 0;
      std::uint64_t next_reload = kReloadEvery;
      try {
        cfs::ServeClient client;
        client.set_timeout_ms(kClientTimeoutMs);
        client.connect(socket);
        while (Clock::now() < deadline) {
          ++s.attempted;
          if (c == 0 && answered.load(std::memory_order_relaxed) >= next_reload) {
            next_reload += kReloadEvery;
            const auto t0 = Clock::now();
            const cfs::JsonValue response = client.request(reload);
            const double us = us_since(t0);
            if (reloaded(response, ++generation))
              s.reload_ms.push_back(us / 1000.0);
            else
              ++s.failed;
            continue;
          }
          const Draw d = mix.draw(rng);
          const auto t0 = Clock::now();
          const cfs::JsonValue response = client.request(mix.request_of(d));
          const double us = us_since(t0);
          answered.fetch_add(1, std::memory_order_relaxed);
          if (!mix.check(d, response)) {
            ++s.failed;
            continue;
          }
          s.request_us.push_back(us);
          if (d.op == Op::PeersAt)
            s.peers_at_us.push_back(us);
          else if (d.op != Op::Ping)
            s.lookup_us.push_back(us);
        }
      } catch (const std::exception& error) {
        // Transport error: the request in flight (or the connect) failed.
        s.attempted = std::max<std::uint64_t>(s.attempted, 1);
        ++s.failed;
        std::cerr << "cfsbench: client " << c << ": " << error.what() << "\n";
      }
    });
  }
  for (std::thread& client : clients) client.join();
  LoopStats total;
  for (const LoopStats& s : per_client) total.merge(s);
  total.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

// The query plane's own fixed-snapshot control for in-process replays.
class FixedControl final : public cfs::ServeControl {
 public:
  explicit FixedControl(std::shared_ptr<const cfs::ServeState> state)
      : state_(std::move(state)) {}
  [[nodiscard]] std::shared_ptr<const cfs::ServeState> state() const override {
    return state_;
  }
  void swap_state(std::shared_ptr<const cfs::ServeState> next) override {
    state_ = std::move(next);
  }
  void request_shutdown() override {}
  cfs::MetricsSnapshot exchange_metrics_baseline(
      const cfs::MetricsSnapshot& now) override {
    return now;
  }

 private:
  std::shared_ptr<const cfs::ServeState> state_;
};

// handle_request on the same mix with no socket: the handler share of a
// request, and the response sizes.
void replay_handlers(std::shared_ptr<const cfs::ServeState> state,
                     const QueryMix& mix, std::uint64_t seed, Outcome& out) {
  FixedControl control(std::move(state));
  cfs::Rng rng = cfs::Rng(seed).fork(0x4a4dull);
  std::vector<double> lookup_us;
  std::vector<double> peers_at_us;
  std::vector<double> lookup_bytes;
  std::vector<double> peers_at_bytes;
  cfs::TraceSpan span("bench.serve.handlers", "bench");
  for (std::size_t i = 0; i < kHandlerReplays; ++i) {
    const Draw d = mix.draw(rng);
    if (d.op == Op::Ping) continue;
    const auto t0 = Clock::now();
    const cfs::JsonValue response = cfs::handle_request(mix.request_of(d), control);
    const double us = us_since(t0);
    ++out.attempted;
    if (!mix.check(d, response)) ++out.failed;
    const auto bytes = static_cast<double>(response.dump().size());
    if (d.op == Op::PeersAt) {
      peers_at_us.push_back(us);
      peers_at_bytes.push_back(bytes);
    } else {
      lookup_us.push_back(us);
      lookup_bytes.push_back(bytes);
    }
  }
  auto& o = out.metrics;
  o["serve.handle_lookup_us"] = median(lookup_us);
  o["serve.handle_peers_at_us"] = median(peers_at_us);
  o["serve.response_bytes_lookup"] = median(lookup_bytes);
  o["serve.response_bytes_peers_at"] = median(peers_at_bytes);
}

void set_percentile(Outcome& out, const char* name,
                    const std::vector<double>& values, double p,
                    double scale) {
  if (const auto v = percentile(values, p)) out.metrics[name] = *v * scale;
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome out;
  const std::string stem =
      options.out_dir + "/serve-" + std::to_string(::getpid());
  const std::string report_path = stem + ".report.json";

  const cfs::Stopwatch setup_clock;
  MapCycle cycle = build_map(1, options.trace);
  const std::shared_ptr<const cfs::ServeState> state =
      cfs::ServeState::from_report(std::move(cycle.report), "pipeline", 0);
  LocalServer server(stem + ".sock", state);
  const double setup_ms = setup_clock.elapsed_ms();

  // The batch export the reloads read, and the answers it implies.
  cfs::write_report_file(report_path, state->report);
  const QueryMix mix(*state, options.seed);
  const LoopStats loop =
      closed_loop(server.socket_path(), mix,
                  request("reload", "report", cfs::JsonValue(report_path)),
                  options.seed, options.seconds);
  server.stop();
  out.attempted += loop.attempted;
  out.failed += loop.failed;
  score_map(*cycle.pipeline, state->report, out);
  std::cout << "samples: requests=" << loop.request_us.size()
            << " lookups=" << loop.lookup_us.size()
            << " peers_at=" << loop.peers_at_us.size()
            << " reloads=" << loop.reload_ms.size() << "\n";

  if (!options.trace) {
    // A daemon's time to a map: a `reload` publishing the batch export as
    // the next generation, spread over the whole loop (the map built in
    // set-up is a single sample, too few for a steady median).
    out.metrics["setup_s"] = setup_ms / 1000.0;
    set_percentile(out, "map_s", loop.reload_ms, 0.50, 1e-3);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    set_percentile(out, "step_p50_ms", loop.request_us, 0.50, 1e-3);
    set_percentile(out, "step_tail_ms", loop.request_us, 0.99, 1e-3);
    std::filesystem::remove(report_path);
    return out;
  }

  auto& o = out.metrics;
  read_setup_layers(cycle.setup_ms, cycle.setup_delta, cycle.campaign_delta,
                    out);
  read_cfs_layers(state->report, out);
  o["serve.qps"] =
      static_cast<double>(loop.request_us.size() + loop.reload_ms.size()) /
      loop.wall_s;
  set_percentile(out, "serve.lookup_p50_us", loop.lookup_us, 0.50, 1.0);
  set_percentile(out, "serve.lookup_p99_us", loop.lookup_us, 0.99, 1.0);
  set_percentile(out, "serve.peers_at_p50_us", loop.peers_at_us, 0.50, 1.0);
  set_percentile(out, "serve.peers_at_p99_us", loop.peers_at_us, 0.99, 1.0);
  set_percentile(out, "serve.reload_p50_ms", loop.reload_ms, 0.50, 1.0);
  o["serve.lookup_samples"] = static_cast<double>(loop.lookup_us.size());
  o["serve.peers_at_samples"] = static_cast<double>(loop.peers_at_us.size());
  o["serve.reload_samples"] = static_cast<double>(loop.reload_ms.size());

  // Replays run traced; the closed loop above ran with tracing off.
  cfs::Trace::enable();
  replay_handlers(state, mix, options.seed, out);
  o["serve.transport_lookup_us"] = transport_share(
      o["serve.lookup_p50_us"], o["serve.handle_lookup_us"]);
  o["serve.state_build_ms"] = time_publish(state->report);
  {
    const double before = current_rss_mb();
    cfs::TraceSpan span("bench.serve.from_file", "bench");
    const auto loaded = cfs::ServeState::from_file(report_path, 1);
    o["serve.state_load_ms"] = span.stop();
    o["serve.generation_rss_mb"] = current_rss_mb() - before;
  }
  const cfs::Pipeline& pipeline = *cycle.pipeline;
  replay_alias_layers(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.config().cfs.seed, cycle.initial,
                      state->report, out);
  std::string bytes;
  o["io.export_ms"] = time_export(state->report, bytes);
  o["io.report_bytes"] = static_cast<double>(bytes.size());
  std::filesystem::remove(report_path);
  return out;
}

}  // namespace cfsbench
