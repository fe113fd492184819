#include "harness/serialize.hpp"

#include <initializer_list>
#include <limits>
#include <utility>

#include "harness/identity.hpp"
#include "uarch/config.hpp"

namespace t1000 {
namespace {

std::vector<int> int_vector_from_json(const Json& j) {
  std::vector<int> out;
  out.reserve(j.size());
  for (const Json& v : j.items()) {
    out.push_back(static_cast<int>(v.as_int()));
  }
  return out;
}

// Spec-side deserialization is lenient about absent members (the field
// keeps its struct default, so a request names only what it changes) but
// strict about unknown ones: a typo'd field would otherwise be silently
// dropped and the daemon would simulate a machine the caller never asked
// for. `context` names the enclosing object in the error.
void reject_unknown_members(const Json& j, const char* context,
                            std::initializer_list<std::string_view> allowed) {
  for (const auto& member : j.members()) {
    bool known = false;
    for (std::string_view name : allowed) {
      if (member.first == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw JsonError("unknown member \"" + member.first + "\" in " +
                      context);
    }
  }
}

// Reads integer member `key` into a field of type T. A value T cannot hold
// is an error naming the member: a cast would wrap it, and the request
// would run a machine nobody asked for.
template <typename T>
void read_int(const Json& j, std::string_view key, T* out) {
  const Json* v = j.find(key);
  if (v == nullptr) return;
  const std::int64_t value = v->as_int();
  if (!std::in_range<T>(value)) {
    throw JsonError("member \"" + std::string(key) + "\" must be in [" +
                    std::to_string(std::numeric_limits<T>::min()) + ", " +
                    std::to_string(std::numeric_limits<T>::max()) +
                    "] (got " + std::to_string(value) + ")");
  }
  *out = static_cast<T>(value);
}

void read_bool(const Json& j, std::string_view key, bool* out) {
  if (const Json* v = j.find(key)) *out = v->as_bool();
}

void read_double(const Json& j, std::string_view key, double* out) {
  if (const Json* v = j.find(key)) *out = v->as_double();
}

void read_string(const Json& j, std::string_view key, std::string* out) {
  if (const Json* v = j.find(key)) *out = v->as_string();
}

}  // namespace

Json to_json(const CacheStats& stats) {
  Json j = Json::object();
  j["accesses"] = Json(stats.accesses);
  j["misses"] = Json(stats.misses);
  j["writebacks"] = Json(stats.writebacks);
  return j;
}

Json to_json(const PfuStats& stats) {
  Json j = Json::object();
  j["lookups"] = Json(stats.lookups);
  j["hits"] = Json(stats.hits);
  j["reconfigurations"] = Json(stats.reconfigurations);
  return j;
}

Json to_json(const BranchStats& stats) {
  Json j = Json::object();
  j["conditional"] = Json(stats.conditional);
  j["cond_mispredicts"] = Json(stats.cond_mispredicts);
  j["indirect"] = Json(stats.indirect);
  j["indirect_mispredicts"] = Json(stats.indirect_mispredicts);
  return j;
}

Json to_json(const SimStats& stats) {
  Json j = Json::object();
  j["cycles"] = Json(stats.cycles);
  j["committed"] = Json(stats.committed);
  j["il1"] = to_json(stats.il1);
  j["dl1"] = to_json(stats.dl1);
  j["l2"] = to_json(stats.l2);
  j["itlb"] = to_json(stats.itlb);
  j["dtlb"] = to_json(stats.dtlb);
  j["pfu"] = to_json(stats.pfu);
  j["branch"] = to_json(stats.branch);
  return j;
}

Json to_json(const StallBreakdown& stalls) {
  Json j = Json::object();
  j["cycles"] = Json(stalls.cycles);
  j["commit_cycles"] = Json(stalls.commit_cycles);
  Json causes = Json::object();
  for (int c = 0; c < kNumStallCauses; ++c) {
    causes[stall_cause_name(static_cast<StallCause>(c))] =
        Json(stalls.causes[c]);
  }
  j["causes"] = std::move(causes);
  return j;
}

Json to_json(const RunOutcome& outcome) {
  Json j = Json::object();
  j["stats"] = to_json(outcome.stats);
  j["num_configs"] = Json(outcome.num_configs);
  j["num_apps"] = Json(outcome.num_apps);
  j["lengths"] = Json::array_of(outcome.lengths);
  j["lut_costs"] = Json::array_of(outcome.lut_costs);
  j["checksum"] = Json(outcome.checksum);
  j["trace_steps"] = Json(outcome.trace_steps);
  // Hex: the fingerprint is a full 64-bit value and Json integers are
  // signed.
  j["trace_hash"] = Json(to_hex(outcome.trace_hash));
  // Absent for unobserved runs: presence round-trips RunOutcome::observed.
  if (outcome.observed) j["stalls"] = to_json(outcome.stalls);
  return j;
}

Json to_json(const RunResult& result) {
  Json j = Json::object();
  j["spec"] = to_json(result.spec);
  j["outcome"] = to_json(result.outcome);
  j["status"] = Json(run_status_name(result.status));
  if (result.status != RunStatus::kOk) {
    Json error = Json::object();
    error["kind"] = Json(run_error_kind_name(result.error_kind));
    error["message"] = Json(result.error);
    j["error"] = std::move(error);
  }
  return j;
}

std::string_view run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kError: return "error";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kSkipped: return "skipped";
  }
  return "unknown";
}

std::string_view run_error_kind_name(RunErrorKind kind) {
  switch (kind) {
    case RunErrorKind::kNone: return "none";
    case RunErrorKind::kSim: return "sim";
    case RunErrorKind::kVerify: return "verify";
    case RunErrorKind::kJson: return "json";
    case RunErrorKind::kCacheIo: return "cache_io";
    case RunErrorKind::kStdException: return "std_exception";
    case RunErrorKind::kUnknown: return "unknown";
  }
  return "unknown";
}

Json to_json(const CacheConfig& config) {
  Json j = Json::object();
  j["size_bytes"] = Json(config.size_bytes);
  j["line_bytes"] = Json(config.line_bytes);
  j["assoc"] = Json(config.assoc);
  j["hit_latency"] = Json(config.hit_latency);
  return j;
}

Json to_json(const TlbConfig& config) {
  Json j = Json::object();
  j["entries"] = Json(config.entries);
  j["page_bytes"] = Json(config.page_bytes);
  j["miss_latency"] = Json(config.miss_latency);
  return j;
}

Json to_json(const PfuConfig& config) {
  Json j = Json::object();
  j["count"] = Json(config.count);
  j["reconfig_latency"] = Json(config.reconfig_latency);
  j["multi_cycle_ext"] = Json(config.multi_cycle_ext);
  j["levels_per_cycle"] = Json(config.levels_per_cycle);
  return j;
}

std::string_view branch_predictor_name(BranchPredictorKind kind) {
  switch (kind) {
    case BranchPredictorKind::kPerfect: return "perfect";
    case BranchPredictorKind::kBimodal: return "bimodal";
    case BranchPredictorKind::kGshare: return "gshare";
    case BranchPredictorKind::kStaticNotTaken: return "static_not_taken";
  }
  return "unknown";
}

bool branch_predictor_from_name(std::string_view name,
                                BranchPredictorKind* out) {
  for (BranchPredictorKind kind :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
        BranchPredictorKind::kGshare, BranchPredictorKind::kStaticNotTaken}) {
    if (name == branch_predictor_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

Json to_json(const BranchPredictorConfig& config) {
  Json j = Json::object();
  j["kind"] = Json(branch_predictor_name(config.kind));
  j["bimodal_entries"] = Json(config.bimodal_entries);
  j["target_entries"] = Json(config.target_entries);
  j["mispredict_penalty"] = Json(config.mispredict_penalty);
  return j;
}

Json to_json(const MachineConfig& config) {
  Json j = Json::object();
  j["fetch_width"] = Json(config.fetch_width);
  j["decode_width"] = Json(config.decode_width);
  j["issue_width"] = Json(config.issue_width);
  j["commit_width"] = Json(config.commit_width);
  j["ruu_size"] = Json(config.ruu_size);
  j["fetch_queue_size"] = Json(config.fetch_queue_size);
  j["int_alus"] = Json(config.int_alus);
  j["int_mults"] = Json(config.int_mults);
  j["mem_ports"] = Json(config.mem_ports);
  j["max_outstanding_misses"] = Json(config.max_outstanding_misses);
  j["il1"] = to_json(config.il1);
  j["dl1"] = to_json(config.dl1);
  j["l2"] = to_json(config.l2);
  j["memory_latency"] = Json(config.memory_latency);
  j["itlb"] = to_json(config.itlb);
  j["dtlb"] = to_json(config.dtlb);
  j["pfu"] = to_json(config.pfu);
  j["branch"] = to_json(config.branch);
  return j;
}

Json to_json(const ExtractPolicy& policy) {
  Json j = Json::object();
  j["max_width"] = Json(policy.max_width);
  j["min_length"] = Json(policy.min_length);
  j["max_length"] = Json(policy.max_length);
  j["max_inputs"] = Json(policy.max_inputs);
  j["max_outputs"] = Json(policy.max_outputs);
  j["require_executed"] = Json(policy.require_executed);
  return j;
}

Json to_json(const SelectPolicy& policy) {
  Json j = Json::object();
  j["num_pfus"] = Json(policy.num_pfus);
  j["time_threshold"] = Json(policy.time_threshold);
  j["lut_budget"] = Json(policy.lut_budget);
  j["use_subsequence_matrix"] = Json(policy.use_subsequence_matrix);
  j["extract"] = to_json(policy.extract);
  return j;
}

Json to_json(const RunSpec& spec) {
  Json j = Json::object();
  j["workload"] = Json(spec.workload);
  j["label"] = Json(spec.label);
  // Everything below the label comes from the shared identity assembly
  // (harness/identity.hpp), the same field list the cache key embeds.
  RunIdentity::append_result_fields(spec, &j);
  return j;
}

CacheConfig cache_config_from_json(const Json& j, CacheConfig c) {
  reject_unknown_members(j, "cache config",
                         {"size_bytes", "line_bytes", "assoc", "hit_latency"});
  read_int(j, "size_bytes", &c.size_bytes);
  read_int(j, "line_bytes", &c.line_bytes);
  read_int(j, "assoc", &c.assoc);
  read_int(j, "hit_latency", &c.hit_latency);
  return c;
}

TlbConfig tlb_config_from_json(const Json& j, TlbConfig c) {
  reject_unknown_members(j, "tlb config",
                         {"entries", "page_bytes", "miss_latency"});
  read_int(j, "entries", &c.entries);
  read_int(j, "page_bytes", &c.page_bytes);
  read_int(j, "miss_latency", &c.miss_latency);
  return c;
}

PfuConfig pfu_config_from_json(const Json& j, PfuConfig c) {
  reject_unknown_members(j, "pfu config",
                         {"count", "reconfig_latency", "multi_cycle_ext",
                          "levels_per_cycle"});
  read_int(j, "count", &c.count);
  read_int(j, "reconfig_latency", &c.reconfig_latency);
  read_bool(j, "multi_cycle_ext", &c.multi_cycle_ext);
  read_int(j, "levels_per_cycle", &c.levels_per_cycle);
  return c;
}

BranchPredictorConfig branch_predictor_config_from_json(
    const Json& j, BranchPredictorConfig c) {
  reject_unknown_members(j, "branch predictor config",
                         {"kind", "bimodal_entries", "target_entries",
                          "mispredict_penalty"});
  if (const Json* kind = j.find("kind")) {
    if (!branch_predictor_from_name(kind->as_string(), &c.kind)) {
      throw JsonError("unknown branch predictor kind \"" +
                      kind->as_string() + "\"");
    }
  }
  read_int(j, "bimodal_entries", &c.bimodal_entries);
  read_int(j, "target_entries", &c.target_entries);
  read_int(j, "mispredict_penalty", &c.mispredict_penalty);
  return c;
}

MachineConfig machine_config_from_json(const Json& j) {
  reject_unknown_members(
      j, "machine config",
      {"fetch_width", "decode_width", "issue_width", "commit_width",
       "ruu_size", "fetch_queue_size", "int_alus", "int_mults", "mem_ports",
       "max_outstanding_misses", "il1", "dl1", "l2", "memory_latency",
       "itlb", "dtlb", "pfu", "branch"});
  MachineConfig c;
  read_int(j, "fetch_width", &c.fetch_width);
  read_int(j, "decode_width", &c.decode_width);
  read_int(j, "issue_width", &c.issue_width);
  read_int(j, "commit_width", &c.commit_width);
  read_int(j, "ruu_size", &c.ruu_size);
  read_int(j, "fetch_queue_size", &c.fetch_queue_size);
  read_int(j, "int_alus", &c.int_alus);
  read_int(j, "int_mults", &c.int_mults);
  read_int(j, "mem_ports", &c.mem_ports);
  read_int(j, "max_outstanding_misses", &c.max_outstanding_misses);
  if (const Json* v = j.find("il1")) c.il1 = cache_config_from_json(*v, c.il1);
  if (const Json* v = j.find("dl1")) c.dl1 = cache_config_from_json(*v, c.dl1);
  if (const Json* v = j.find("l2")) c.l2 = cache_config_from_json(*v, c.l2);
  read_int(j, "memory_latency", &c.memory_latency);
  if (const Json* v = j.find("itlb")) c.itlb = tlb_config_from_json(*v, c.itlb);
  if (const Json* v = j.find("dtlb")) c.dtlb = tlb_config_from_json(*v, c.dtlb);
  if (const Json* v = j.find("pfu")) c.pfu = pfu_config_from_json(*v, c.pfu);
  if (const Json* v = j.find("branch")) {
    c.branch = branch_predictor_config_from_json(*v, c.branch);
  }
  if (const std::string bad = validate(c); !bad.empty()) {
    throw JsonError("machine config: " + bad);
  }
  return c;
}

ExtractPolicy extract_policy_from_json(const Json& j, ExtractPolicy p) {
  reject_unknown_members(j, "extract policy",
                         {"max_width", "min_length", "max_length",
                          "max_inputs", "max_outputs", "require_executed"});
  read_int(j, "max_width", &p.max_width);
  read_int(j, "min_length", &p.min_length);
  read_int(j, "max_length", &p.max_length);
  read_int(j, "max_inputs", &p.max_inputs);
  read_int(j, "max_outputs", &p.max_outputs);
  read_bool(j, "require_executed", &p.require_executed);
  if (const std::string bad = validate(p); !bad.empty()) {
    throw JsonError("extract policy: " + bad);
  }
  return p;
}

SelectPolicy select_policy_from_json(const Json& j) {
  reject_unknown_members(j, "select policy",
                         {"num_pfus", "time_threshold", "lut_budget",
                          "use_subsequence_matrix", "extract"});
  SelectPolicy p;
  read_int(j, "num_pfus", &p.num_pfus);
  read_double(j, "time_threshold", &p.time_threshold);
  read_int(j, "lut_budget", &p.lut_budget);
  read_bool(j, "use_subsequence_matrix", &p.use_subsequence_matrix);
  if (const Json* v = j.find("extract")) {
    p.extract = extract_policy_from_json(*v, p.extract);
  }
  return p;
}

RunSpec run_spec_from_json(const Json& j) {
  reject_unknown_members(j, "run spec",
                         {"workload", "label", "selector", "machine",
                          "policy", "max_cycles", "verify", "observe"});
  RunSpec spec;
  spec.workload = j.at("workload").as_string();
  read_string(j, "label", &spec.label);
  if (const Json* selector = j.find("selector")) {
    if (!selector_from_name(selector->as_string(), &spec.selector)) {
      throw JsonError("unknown selector \"" + selector->as_string() + "\"");
    }
  }
  if (const Json* v = j.find("machine")) {
    spec.machine = machine_config_from_json(*v);
  }
  if (const Json* v = j.find("policy")) {
    spec.policy = select_policy_from_json(*v);
  }
  read_int(j, "max_cycles", &spec.max_cycles);
  read_bool(j, "verify", &spec.verify);
  read_bool(j, "observe", &spec.observe);
  return spec;
}

CacheStats cache_stats_from_json(const Json& j) {
  CacheStats s;
  s.accesses = j.at("accesses").as_uint();
  s.misses = j.at("misses").as_uint();
  s.writebacks = j.at("writebacks").as_uint();
  return s;
}

PfuStats pfu_stats_from_json(const Json& j) {
  PfuStats s;
  s.lookups = j.at("lookups").as_uint();
  s.hits = j.at("hits").as_uint();
  s.reconfigurations = j.at("reconfigurations").as_uint();
  return s;
}

BranchStats branch_stats_from_json(const Json& j) {
  BranchStats s;
  s.conditional = j.at("conditional").as_uint();
  s.cond_mispredicts = j.at("cond_mispredicts").as_uint();
  s.indirect = j.at("indirect").as_uint();
  s.indirect_mispredicts = j.at("indirect_mispredicts").as_uint();
  return s;
}

SimStats sim_stats_from_json(const Json& j) {
  SimStats s;
  s.cycles = j.at("cycles").as_uint();
  s.committed = j.at("committed").as_uint();
  s.il1 = cache_stats_from_json(j.at("il1"));
  s.dl1 = cache_stats_from_json(j.at("dl1"));
  s.l2 = cache_stats_from_json(j.at("l2"));
  s.itlb = cache_stats_from_json(j.at("itlb"));
  s.dtlb = cache_stats_from_json(j.at("dtlb"));
  s.pfu = pfu_stats_from_json(j.at("pfu"));
  s.branch = branch_stats_from_json(j.at("branch"));
  return s;
}

StallBreakdown stall_breakdown_from_json(const Json& j) {
  StallBreakdown s;
  s.cycles = j.at("cycles").as_uint();
  s.commit_cycles = j.at("commit_cycles").as_uint();
  const Json& causes = j.at("causes");
  for (int c = 0; c < kNumStallCauses; ++c) {
    if (const Json* v =
            causes.find(stall_cause_name(static_cast<StallCause>(c)))) {
      s.causes[c] = v->as_uint();
    }
  }
  return s;
}

RunOutcome run_outcome_from_json(const Json& j) {
  RunOutcome out;
  out.stats = sim_stats_from_json(j.at("stats"));
  out.num_configs = static_cast<int>(j.at("num_configs").as_int());
  out.num_apps = static_cast<int>(j.at("num_apps").as_int());
  out.lengths = int_vector_from_json(j.at("lengths"));
  out.lut_costs = int_vector_from_json(j.at("lut_costs"));
  out.checksum = static_cast<std::uint32_t>(j.at("checksum").as_uint());
  out.trace_steps = j.at("trace_steps").as_uint();
  out.trace_hash = std::stoull(j.at("trace_hash").as_string(), nullptr, 16);
  if (const Json* stalls = j.find("stalls")) {
    out.observed = true;
    out.stalls = stall_breakdown_from_json(*stalls);
  }
  return out;
}

}  // namespace t1000
