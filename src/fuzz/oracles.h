// Differential oracles: executable equivalence contracts.
//
// The codebase carries four independent execution paths that must agree
// byte for byte — serial vs parallel, incremental vs from-scratch,
// faulted-replay determinism, and in-memory vs JSON round-tripped — plus
// metamorphic invariants grounded in the paper's algorithm (an inferred
// facility must lie inside its interface's constraint set; constraints
// only ever narrow). Each contract is an Oracle: a named predicate over a
// Scenario that either passes or explains the first divergence it found
// (via the path-addressed diff in analysis/diff.h). The fuzz driver
// samples scenarios and runs the oracle set; the shrinker minimises any
// scenario an oracle rejects. Taxonomy in docs/TESTING.md.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/scenario.h"

namespace cfs {

struct OracleFailure {
  std::string oracle;   // which contract broke
  std::string message;  // first divergent path / violated invariant
};

struct Oracle {
  std::string name;
  std::string description;
  std::function<std::optional<OracleFailure>(const Scenario&)> run;
};

// The full oracle set, in execution order.
[[nodiscard]] const std::vector<Oracle>& all_oracles();

// Subset selection from a comma-separated list ("parallel,roundtrip");
// "all" or "" yields the full set. Throws std::invalid_argument on an
// unknown name, listing the valid ones.
[[nodiscard]] std::vector<Oracle> oracles_by_name(const std::string& csv);

// Runs the oracles in order and returns the first failure. Exceptions
// escaping an oracle (generator invariant violations, export errors) are
// converted into failures of that oracle, so crashes shrink like any
// other divergence.
[[nodiscard]] std::optional<OracleFailure> run_oracles(
    const Scenario& scenario, const std::vector<Oracle>& oracles);

// --- comparison helpers (exposed for tests) ---

// The serial incremental reference arm: the full pipeline for the
// scenario at --threads 1, the run every differential oracle compares
// against. Exposed so `cfs_fuzz --stamp-golden` and the corpus
// golden-replay test hash/compare exactly the bytes the oracles see.
[[nodiscard]] CfsReport run_reference_arm(const Scenario& scenario);

// Exported report JSON with the `metrics` subtree removed (wall-clock
// content differs legitimately between equivalent runs).
[[nodiscard]] JsonValue equivalence_json(const CfsReport& report);

}  // namespace cfs
