// Shared bench baseline guard (docs/SCALE.md, docs/PARALLELISM.md).
//
// Every perf-guarded bench harness emits a BENCH_*.json with a "samples"
// array and compares it against one or more committed baselines. The
// matching logic is the same everywhere — a sample is identified by a
// tuple of key fields ({"corpus","threads"} for the parallel bench,
// {"engine","mult","threads"} for the scale bench), a single
// metric field carries the guarded wall time, and a regression past the
// tolerance fails the run — so it lives here once, unit-tested, instead
// of re-grown ad hoc inside each bench's main().
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "io/json.h"

namespace cfs {

// What identifies a comparable sample and which field is guarded.
struct BenchGuardSpec {
  std::vector<std::string> keys;  // identity fields, e.g. {"corpus","threads"}
  std::string metric;             // guarded field, e.g. "cfs_ms"
  double tolerance = 0.10;        // fail past baseline * (1 + tolerance)
};

struct BenchGuardResult {
  bool ok = true;
  std::size_t compared = 0;  // baseline rows matched against a current row
  std::size_t skipped = 0;   // baseline rows with no matching current row
  std::vector<std::string> failures;  // one human-readable line per breach
  std::vector<std::string> notes;     // per-baseline summary lines

  void merge(const BenchGuardResult& other);
};

// The identity of one row under a spec: its key fields rendered
// canonically ("corpus=paper threads=4"). Rows missing a key field get
// an empty identity and never match anything.
[[nodiscard]] std::string bench_row_key(const JsonValue& row,
                                        const BenchGuardSpec& spec);

// Compares the current document's samples against one baseline document.
// Both documents carry a top-level "samples" array of flat objects.
// Every baseline row whose metric is positive and whose key tuple matches
// a current row is compared; a current metric above
// baseline * (1 + tolerance) appends a failure. `label` names the
// baseline in messages (normally its file path).
[[nodiscard]] BenchGuardResult check_bench_baseline(
    const JsonValue& current, const JsonValue& baseline,
    const BenchGuardSpec& spec, const std::string& label);

// Loads each baseline file (comma-separated lists already split by the
// caller) and folds check_bench_baseline over them. An unreadable or
// unparsable baseline is itself a failure: a perf guard that silently
// skips its baseline guards nothing.
[[nodiscard]] BenchGuardResult check_bench_baseline_files(
    const JsonValue& current, const std::vector<std::string>& paths,
    const BenchGuardSpec& spec);

// Splits "a.json,b.json" into its file paths, dropping empty segments.
[[nodiscard]] std::vector<std::string> split_baseline_list(
    const std::string& list);

}  // namespace cfs
