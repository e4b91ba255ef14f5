// Dataset export / import.
//
// The paper publishes its inference dataset as supplemental material; this
// layer does the same for the synthetic study: the full ground-truth
// topology and any CfsReport serialise to JSON documents that round-trip
// losslessly, so experiments can be archived, diffed and post-processed
// outside the process that ran them.
#pragma once

#include <iosfwd>
#include <string>

#include "core/report.h"
#include "io/json.h"
#include "topology/topology.h"

namespace cfs {

// --- ground-truth topology ---
[[nodiscard]] JsonValue topology_to_json(const Topology& topo);
// Rebuilds a validated topology; throws std::runtime_error on malformed
// documents and std::logic_error if the rebuilt structure fails validate().
[[nodiscard]] Topology topology_from_json(const JsonValue& doc);

// --- inference results ---
[[nodiscard]] JsonValue report_to_json(const CfsReport& report);
[[nodiscard]] CfsReport report_from_json(const JsonValue& doc);
// The exported `metrics` subtree minus everything that legitimately differs
// between equivalent runs: `threads`, `registry` and every `*_ms` timing.
// What remains is every deterministic counter, for cross-engine and
// cross-thread-count comparison.
[[nodiscard]] JsonValue counters_json(const CfsMetrics& metrics);

// Stream helpers (pretty JSON).
void write_topology(std::ostream& os, const Topology& topo);
void write_report(std::ostream& os, const CfsReport& report);

// Atomic file replacement: write to a sibling temp file, flush, then
// rename(2) into place. A concurrent reader — the resident daemon's
// `reload` op in particular — observes either the old complete file or
// the new complete file, never a half-written one. Throws
// std::runtime_error on any I/O failure (the temp file is removed).
void write_topology_file(const std::string& path, const Topology& topo);
void write_report_file(const std::string& path, const CfsReport& report);

}  // namespace cfs
