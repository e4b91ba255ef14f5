#include "serve/chaos.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "io/json.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace cfs {
namespace {

using Clock = std::chrono::steady_clock;

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

int remaining_ms(Clock::time_point until) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(until -
                                                            Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

// A raw connection: the chaos client speaks syscalls, not ServeClient,
// because the whole point is delivering bytes the way the plan dictates.
struct RawConn {
  int fd = -1;
  FrameDecoder decoder{64u << 20};

  ~RawConn() { close(); }

  void close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    decoder = FrameDecoder{64u << 20};
  }

  // Connects within the deadline; retries a full listen backlog (the
  // connection-flood case) with a short nap. False on timeout or hard
  // failure.
  bool connect(const std::string& path, int timeout_ms) {
    close();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const auto until = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      fd = socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return false;
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        return true;
      const int err = errno;
      ::close(fd);
      fd = -1;
      if (err != EAGAIN && err != ECONNREFUSED && err != EINTR) return false;
      if (remaining_ms(until) == 0) return false;
      sleep_ms(1.0);
    }
  }

  // Delivers one frame exactly as the plan dictates. False when the peer
  // closed mid-write (EPIPE/ECONNRESET) — possible and legal when the
  // daemon cut or rejected the connection.
  bool send_per_plan(std::string_view frame, const SocketWritePlan& plan) {
    std::size_t offset = 0;
    for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
      if (static_cast<int>(i) == plan.stall_before_chunk)
        sleep_ms(plan.stall_ms);
      std::size_t want = plan.chunks[i];
      while (want > 0) {
        const ssize_t n =
            send(fd, frame.data() + offset, want, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          return false;
        }
        offset += static_cast<std::size_t>(n);
        want -= static_cast<std::size_t>(n);
      }
    }
    return true;
  }

  enum class ReadOutcome { Frame, Eof, Timeout, Broken };

  // One complete response frame within the deadline.
  ReadOutcome read_frame(std::string& payload, int timeout_ms) {
    const auto until = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (auto frame = decoder.next()) {
        if (frame->kind != Frame::Kind::Payload) return ReadOutcome::Broken;
        payload = std::move(frame->payload);
        return ReadOutcome::Frame;
      }
      const int wait = remaining_ms(until);
      if (wait == 0) return ReadOutcome::Timeout;
      pollfd p{fd, POLLIN, 0};
      const int r = ::poll(&p, 1, wait);
      if (r < 0) {
        if (errno == EINTR) continue;
        return ReadOutcome::Broken;
      }
      if (r == 0) return ReadOutcome::Timeout;
      char buffer[64 * 1024];
      const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        decoder.feed(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return ReadOutcome::Eof;
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadOutcome::Eof;  // ECONNRESET: the daemon cut us
    }
  }
};

void run_one_client(const ChaosConfig& config, const SocketFaultPlane& plane,
                    const std::vector<ChaosExpectation>& lookups,
                    std::uint64_t client_id, ChaosStats& stats) {
  RawConn conn;
  int consecutive_connect_failures = 0;
  for (int ordinal = 0; ordinal < config.requests_per_client; ++ordinal) {
    stats.attempted += 1;
    if (conn.fd < 0) {
      if (!conn.connect(config.socket_path, config.response_timeout_ms)) {
        stats.transport_errors += 1;
        if (++consecutive_connect_failures >= 3) return;  // daemon is gone
        continue;
      }
      consecutive_connect_failures = 0;
      if (ordinal > 0) stats.reconnects += 1;
    }

    const ChaosExpectation& expect =
        lookups[mix64(plane.seed() ^ mix64(client_id * 8191 + 13) ^
                      static_cast<std::uint64_t>(ordinal)) %
                lookups.size()];
    JsonValue::Object doc;
    doc.emplace("op", "lookup");
    doc.emplace("id", static_cast<std::int64_t>(ordinal));
    doc.emplace("ip", expect.ip);
    const std::string frame = encode_frame(JsonValue(std::move(doc)).dump());
    const SocketWritePlan plan =
        plane.write_plan(client_id, static_cast<std::uint64_t>(ordinal),
                         frame.size());

    const auto start = Clock::now();
    if (!conn.send_per_plan(frame, plan)) {
      // Peer closed mid-write: a rejection or a timeout cut, never an
      // error. The request was not fully delivered, so no answer is owed.
      stats.cut += 1;
      conn.close();
      continue;
    }
    if (plan.torn()) {
      stats.torn += 1;
      conn.close();
      continue;
    }
    if (plan.disconnect_before_read) {
      stats.disconnected += 1;
      conn.close();
      continue;
    }
    sleep_ms(plan.read_stall_ms);

    std::string payload;
    switch (conn.read_frame(payload, config.response_timeout_ms)) {
      case RawConn::ReadOutcome::Eof:
        stats.cut += 1;  // daemon closed before answering (cut under load)
        conn.close();
        continue;
      case RawConn::ReadOutcome::Timeout:
      case RawConn::ReadOutcome::Broken:
        stats.transport_errors += 1;
        conn.close();
        continue;
      case RawConn::ReadOutcome::Frame:
        break;
    }

    JsonValue response;
    try {
      response = parse_json(payload);
    } catch (const std::exception&) {
      stats.desyncs += 1;
      conn.close();
      continue;
    }
    const JsonValue* ok = response.find("ok");
    if (ok == nullptr || !ok->is_bool()) {
      stats.desyncs += 1;
      conn.close();
      continue;
    }
    if (!ok->as_bool()) {
      const JsonValue* error = response.find("error");
      const std::string code =
          error != nullptr && error->find("code") != nullptr
              ? error->at("code").as_string()
              : std::string("?");
      if (code == "overloaded") {
        // Front-door rejection: the daemon will close this connection.
        stats.shed += 1;
        conn.close();
        continue;
      }
      if (code == "deadline_exceeded") {
        // Shed in place; the connection stays usable. The id must still
        // echo ours — shedding never reorders.
        const JsonValue* id = response.find("id");
        if (id == nullptr || id->is_null() ||
            (id->is_number() && id->as_int() == ordinal))
          stats.shed += 1;
        else
          stats.desyncs += 1;
        continue;
      }
      stats.desyncs += 1;  // well-formed lookups never earn other errors
      continue;
    }

    // Validated answer: id echoed, bytes identical to the batch export.
    const JsonValue* id = response.find("id");
    const JsonValue* result = response.find("result");
    bool valid = id != nullptr && id->is_number() &&
                 id->as_int() == ordinal && result != nullptr;
    if (valid) {
      const std::string got = result->at("found").as_bool()
                                  ? result->at("interface").dump()
                                  : std::string("absent");
      valid = got == expect.expected_interface_dump;
    }
    if (valid) {
      stats.ok += 1;
      stats.ok_latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
    } else {
      stats.desyncs += 1;
    }
  }
}

}  // namespace

ChaosStats run_chaos_clients(const ChaosConfig& config,
                             const std::vector<ChaosExpectation>& lookups) {
  ChaosStats total;
  if (lookups.empty() || config.clients <= 0) return total;
  const SocketFaultPlane plane(config.plan, config.seed);

  std::mutex merge_mutex;
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    fleet.emplace_back([&, c] {
      ChaosStats local;
      run_one_client(config, plane, lookups,
                     static_cast<std::uint64_t>(c) + 1, local);
      std::lock_guard<std::mutex> lock(merge_mutex);
      total.attempted += local.attempted;
      total.ok += local.ok;
      total.shed += local.shed;
      total.torn += local.torn;
      total.disconnected += local.disconnected;
      total.cut += local.cut;
      total.desyncs += local.desyncs;
      total.transport_errors += local.transport_errors;
      total.reconnects += local.reconnects;
      total.ok_latency_ms.insert(total.ok_latency_ms.end(),
                                 local.ok_latency_ms.begin(),
                                 local.ok_latency_ms.end());
    });
  }
  for (auto& thread : fleet) thread.join();
  std::sort(total.ok_latency_ms.begin(), total.ok_latency_ms.end());
  return total;
}

}  // namespace cfs
