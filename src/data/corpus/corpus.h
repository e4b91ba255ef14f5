// Out-of-core trace corpus: one directory of column files.
//
// Layout (docs/SCALE.md):
//
//   <dir>/manifest.json   corpus-level commit point, written last
//   <dir>/vp.col          u32  vantage-point id
//   <dir>/target.col      u32  probe target address
//   <dir>/flags.col       u8   bit0 = reached_target
//   <dir>/timeouts.col    u32  hops_timed_out
//   <dir>/hop_off.col     u64  first row in the hop columns
//   <dir>/hop_cnt.col     u32  hop count
//   <dir>/hop_addr.col    u32  per-hop responding address
//   <dir>/hop_rtt.col     f64  per-hop RTT (ms)
//   <dir>/hop_flags.col   u8   bit0 = responded, bit1 = timed_out
//
// Row r of the trace columns is the r-th trace of the campaign's serial
// keep-order, so reading rows 0..traces-1 reconstructs the exact in-memory
// corpus — the basis of the byte-identical-report contract (docs/SCALE.md
// "The contract"). The writer streams every kept trace straight to the
// columns through fixed per-column buffers, and `manifest.json` — written
// atomically after every column has renamed into place — is the corpus's
// commit point: a corpus directory left behind by a killed run has no
// manifest and is rejected as a unit, and stray `*.tmp` column litter is
// never opened.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>

#include "data/corpus/format.h"
#include "traceroute/engine.h"

namespace cfs::corpus {

struct CorpusSummary {
  std::uint64_t traces = 0;
  std::uint64_t hops = 0;
};

// The corpus's columns, in layout order: the first kTraceColumns hold one
// row per trace, the rest one row per hop.
enum Column : std::size_t {
  kVp, kTarget, kFlags, kTimeouts, kHopOff, kHopCnt,
  kHopAddr, kHopRtt, kHopFlags, kColumnCount
};
inline constexpr std::size_t kTraceColumns = kHopAddr;

// Streams kept traces into the column files. Not thread-safe: the
// campaign's serial keep-order pass is the only writer.
class TraceCorpusWriter {
 public:
  explicit TraceCorpusWriter(std::string dir);

  // Appends one trace as the next row.
  void append(const TraceResult& trace);

  // Finishes every column (tmp -> rename), then commits the corpus by
  // writing manifest.json.
  CorpusSummary finish();

 private:
  std::string dir_;
  std::array<std::unique_ptr<ColumnWriter>, kColumnCount> columns_;
  std::uint64_t traces_ = 0;
  std::uint64_t hops_ = 0;
  bool finished_ = false;
};

// Read-only mmap view of a committed corpus. All methods are const and
// safe to call concurrently.
class TraceCorpusReader {
 public:
  static std::shared_ptr<const TraceCorpusReader> open(
      const std::string& dir, bool verify_payloads = false);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t traces() const { return summary_.traces; }
  [[nodiscard]] std::uint64_t total_hops() const { return summary_.hops; }
  [[nodiscard]] const CorpusSummary& summary() const { return summary_; }
  [[nodiscard]] std::span<const MappedColumn> columns() const {
    return columns_;
  }

  // Rebuilds the full TraceResult for one row into `out` (reusing its
  // hop capacity). Bounds-checks the hop range against the hop columns.
  void materialize(std::uint64_t row, TraceResult& out) const;

  // Drops resident pages for trace rows [begin, end) across the trace
  // and hop columns.
  void release_range(std::uint64_t begin, std::uint64_t end) const;

  // Deep verification of an on-disk corpus: manifest consistency, column
  // checksums and hop-range tiling. Returns the verified summary; throws
  // CorpusError on any defect.
  static CorpusSummary verify(const std::string& dir);

 private:
  std::string dir_;
  CorpusSummary summary_;
  std::array<MappedColumn, kColumnCount> columns_;

  static TraceCorpusReader open_impl(const std::string& dir,
                                     bool verify_payloads);
};

// Path of a corpus directory's manifest, exposed for the robustness tests.
std::string manifest_path(const std::string& dir);

}  // namespace cfs::corpus
