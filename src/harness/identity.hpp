// The single authoritative assembly of a run's identity.
//
// Three harness layers need to agree, field for field, on what determines
// a run's result: the result cache (harness/cache.hpp) keys memoized
// outcomes on it, the serializer (harness/serialize.hpp) embeds it in the
// results JSON, and the grid's batch scheduler (harness/grid.cpp) groups
// RunSpecs that may share one replay sweep. Before this helper each site
// re-listed the RunSpec fields by hand, and a field added to one but not
// the others would silently serve stale cache entries or batch
// incompatible lanes. RunIdentity is that list, written once.
//
// Three grains of identity, coarsest to finest:
//
//  * preparation_key(): what the prepared run (selection, rewrite,
//    committed trace) depends on — the selector and every policy field,
//    and nothing else. Specs sharing it replay the same trace.
//  * batch_key(): the grid's lane-grouping rule — specs with equal batch
//    keys may be timed as lanes of one WorkloadExperiment::run_batch. The
//    preparation plus the workload and the verify flag; the machine,
//    max_cycles, and observe vary freely across lanes.
//  * append_result_fields(): every RunSpec field that can change the
//    simulation result, appended in the canonical serialization order.
//    The cache key and the results JSON are both built on it.
#pragma once

#include <string>

#include "harness/experiment.hpp"
#include "harness/json.hpp"

namespace t1000 {

struct RunIdentity {
  // Appends the result-determining RunSpec fields to `out` in canonical
  // order: selector, machine, policy, max_cycles, verify, observe.
  // Workload and label are the caller's business (the cache key includes
  // the workload and the program hash; the label is presentation only).
  static void append_result_fields(const RunSpec& spec, Json* out);

  // Identity of the prepared run `spec` replays (see
  // WorkloadExperiment::prepared_run): "none" for the baseline, else
  // selector name + every policy field. Machine configuration is
  // deliberately absent — sharing one trace across machines is the point.
  static std::string preparation_key(const RunSpec& spec);

  // The grid's lane-grouping rule: specs with equal batch keys replay the
  // same prepared trace under the same verify regime and may run as lanes
  // of one batched sweep. Machine, max_cycles, and observe are per-lane.
  static std::string batch_key(const RunSpec& spec);
};

}  // namespace t1000
