// JSON (de)serialization for the structured results layer: machine
// configurations, simulation statistics, and run outcomes.
//
// Two consumers with different needs share these converters:
//  * the `--json` export in every bench/tool, which wants a faithful,
//    human-diffable rendering of what was simulated, and
//  * the experiment engine's content-keyed result cache, which needs the
//    serialization to be deterministic (member order and number formatting
//    fixed) so equal configurations serialize to equal bytes. json.hpp
//    guarantees both properties.
//
// Each machine, policy and stats struct lists its members once, in
// serialization order (serialize.cpp); one writer and one reader walk the
// lists. Read from a request, an absent member keeps its default, so a
// curl-sized request names only what it changes; read from a cache entry,
// every member is required. Both reject unknown members (a typo must never
// silently simulate the wrong machine) and name a bad member by its path
// below the machine or policy ("dl1.size_bytes"). Only the documents that
// cross a boundary whole have public readers: a RunSpec from a t1000-serve
// request, and a RunOutcome (with its StallBreakdown) from a cache entry.
#pragma once

#include "harness/experiment.hpp"
#include "harness/grid.hpp"
#include "harness/json.hpp"

namespace t1000 {

Json to_json(const CacheStats& stats);
Json to_json(const PfuStats& stats);
Json to_json(const BranchStats& stats);
Json to_json(const SimStats& stats);
// {"cycles", "commit_cycles", "causes": {<stall_cause_name>: cycles, ...}}
// with every cause present (zeros included), in enumerator order.
Json to_json(const StallBreakdown& stalls);
Json to_json(const RunOutcome& outcome);
// One results-array entry: {"spec", "outcome", "status"} plus, for runs
// that did not complete, an "error" object {"kind", "message"}. Failed
// runs keep a (default-initialized) outcome member so the array stays
// uniformly shaped for downstream tooling.
Json to_json(const RunResult& result);

Json to_json(const CacheConfig& config);
Json to_json(const TlbConfig& config);
Json to_json(const PfuConfig& config);
Json to_json(const BranchPredictorConfig& config);
Json to_json(const MachineConfig& config);
Json to_json(const ExtractPolicy& policy);
Json to_json(const SelectPolicy& policy);
Json to_json(const RunSpec& spec);

// Rebuilds a RunSpec from the to_json(RunSpec) shape; only the workload is
// required. Throws JsonError on an unknown member, a bad type or name, or
// a machine or policy that fails validate().
RunSpec run_spec_from_json(const Json& j);
StallBreakdown stall_breakdown_from_json(const Json& j);
RunOutcome run_outcome_from_json(const Json& j);

// The checked scalar reader behind them all, shared with the serve layer's
// request options: stores `v`, the value of member `key`, in *out, or
// throws JsonError naming `key` when `v` has the wrong type or *out cannot
// hold it. Instantiated for bool, double and std::uint64_t.
template <typename T>
void read_scalar(const Json& v, std::string_view key, T* out);

// Stable name for a branch predictor kind ("perfect", "bimodal", ...).
std::string_view branch_predictor_name(BranchPredictorKind kind);
// Returns false (and leaves `out` untouched) for unknown names.
bool branch_predictor_from_name(std::string_view name,
                                BranchPredictorKind* out);

// Stable lowercase names for the run-status taxonomy, used by the results
// JSON, the engine summary, and the tools' structured error exit.
std::string_view run_status_name(RunStatus status);
std::string_view run_error_kind_name(RunErrorKind kind);

}  // namespace t1000
