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
// from_json covers two consumers: what the cache must round-trip (SimStats
// and RunOutcome), and — since the serve layer — full RunSpec re-hydration,
// so a JSON grid request submitted to t1000-serve deserializes into exactly
// the spec that serializes back to the same bytes. Spec-side deserializers
// are lenient about absent members (each defaults as in the struct, so a
// curl-sized request can name only what it changes) but strict about
// unknown ones (a typo'd field name must fail loudly, never silently
// simulate the wrong machine).
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

// The nested decoders start from `base`, the enclosing struct's current
// value, so an object that names some members keeps the rest. Every
// decoder throws JsonError naming the member when a number does not fit
// its field.
CacheConfig cache_config_from_json(const Json& j, CacheConfig base);
TlbConfig tlb_config_from_json(const Json& j, TlbConfig base);
PfuConfig pfu_config_from_json(const Json& j, PfuConfig base);
BranchPredictorConfig branch_predictor_config_from_json(
    const Json& j, BranchPredictorConfig base);
// Also throws JsonError naming the field when the machine fails
// validate() (uarch/config.hpp).
MachineConfig machine_config_from_json(const Json& j);
// Likewise when the candidate shape fails validate() (extinst/extract.hpp).
ExtractPolicy extract_policy_from_json(const Json& j, ExtractPolicy base);
SelectPolicy select_policy_from_json(const Json& j);
// Rebuilds a RunSpec from the to_json(RunSpec) shape: workload (required),
// label, selector, machine, policy, max_cycles, verify, observe. Throws
// JsonError on unknown members, bad types, unknown selector names, or an
// invalid machine or candidate shape.
RunSpec run_spec_from_json(const Json& j);

CacheStats cache_stats_from_json(const Json& j);
PfuStats pfu_stats_from_json(const Json& j);
BranchStats branch_stats_from_json(const Json& j);
SimStats sim_stats_from_json(const Json& j);
StallBreakdown stall_breakdown_from_json(const Json& j);
RunOutcome run_outcome_from_json(const Json& j);

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
