#include "harness/serialize.hpp"

#include <charconv>
#include <limits>
#include <type_traits>
#include <utility>

#include "harness/identity.hpp"
#include "uarch/config.hpp"

namespace t1000 {
namespace {

// A member whose value its field cannot take, named by its path below the
// machine or policy object ("dl1.size_bytes", as validate(MachineConfig)
// names it). Readers of an enclosing object prefix their key on the way
// out, so a path is only built for a request that fails.
class MemberError : public JsonError {
 public:
  MemberError(std::string path, std::string detail)
      : JsonError("member \"" + path + "\" " + detail),
        path_(std::move(path)),
        detail_(std::move(detail)) {}
  MemberError under(std::string_view key) const {
    return {std::string(key) + "." + path_, detail_};
  }

 private:
  std::string path_, detail_;
};

// Each serialized struct's members, listed once in serialization order:
// f(name, member) per member. The writer, the request reader and the
// cache-entry reader below all walk these lists.
void members(CacheStats& s, auto&& f) {
  f("accesses", s.accesses);
  f("misses", s.misses);
  f("writebacks", s.writebacks);
}

void members(PfuStats& s, auto&& f) {
  f("lookups", s.lookups);
  f("hits", s.hits);
  f("reconfigurations", s.reconfigurations);
}

void members(BranchStats& s, auto&& f) {
  f("conditional", s.conditional);
  f("cond_mispredicts", s.cond_mispredicts);
  f("indirect", s.indirect);
  f("indirect_mispredicts", s.indirect_mispredicts);
}

void members(SimStats& s, auto&& f) {
  f("cycles", s.cycles);
  f("committed", s.committed);
  f("il1", s.il1);
  f("dl1", s.dl1);
  f("l2", s.l2);
  f("itlb", s.itlb);
  f("dtlb", s.dtlb);
  f("pfu", s.pfu);
  f("branch", s.branch);
}

void members(CacheConfig& c, auto&& f) {
  f("size_bytes", c.size_bytes);
  f("line_bytes", c.line_bytes);
  f("assoc", c.assoc);
  f("hit_latency", c.hit_latency);
}

void members(TlbConfig& c, auto&& f) {
  f("entries", c.entries);
  f("page_bytes", c.page_bytes);
  f("miss_latency", c.miss_latency);
}

void members(PfuConfig& c, auto&& f) {
  f("count", c.count);
  f("reconfig_latency", c.reconfig_latency);
  f("multi_cycle_ext", c.multi_cycle_ext);
  f("levels_per_cycle", c.levels_per_cycle);
}

void members(BranchPredictorConfig& c, auto&& f) {
  f("kind", c.kind);  // by name
  f("bimodal_entries", c.bimodal_entries);
  f("target_entries", c.target_entries);
  f("mispredict_penalty", c.mispredict_penalty);
}

void members(MachineConfig& c, auto&& f) {
  f("fetch_width", c.fetch_width);
  f("decode_width", c.decode_width);
  f("issue_width", c.issue_width);
  f("commit_width", c.commit_width);
  f("ruu_size", c.ruu_size);
  f("fetch_queue_size", c.fetch_queue_size);
  f("int_alus", c.int_alus);
  f("int_mults", c.int_mults);
  f("mem_ports", c.mem_ports);
  f("max_outstanding_misses", c.max_outstanding_misses);
  f("il1", c.il1);
  f("dl1", c.dl1);
  f("l2", c.l2);
  f("memory_latency", c.memory_latency);
  f("itlb", c.itlb);
  f("dtlb", c.dtlb);
  f("pfu", c.pfu);
  f("branch", c.branch);
}

void members(ExtractPolicy& p, auto&& f) {
  f("max_width", p.max_width);
  f("min_length", p.min_length);
  f("max_length", p.max_length);
  f("max_inputs", p.max_inputs);
  f("max_outputs", p.max_outputs);
  f("require_executed", p.require_executed);
}

void members(SelectPolicy& p, auto&& f) {
  f("num_pfus", p.num_pfus);
  f("time_threshold", p.time_threshold);
  f("lut_budget", p.lut_budget);
  f("use_subsequence_matrix", p.use_subsequence_matrix);
  f("extract", p.extract);
}

// The structs with a member list above; every other member is a scalar.
template <typename T>
constexpr bool kIsStruct =
    requires(T& t) { members(t, [](std::string_view, auto&) {}); };

template <typename T>
Json write(const T& value) {
  if constexpr (kIsStruct<T>) {
    Json j = Json::object();
    // The walk only reads: the lists take a mutable struct for the reader.
    members(const_cast<T&>(value), [&](std::string_view name, const auto& v) {
      j[name] = write(v);
    });
    return j;
  } else if constexpr (std::is_enum_v<T>) {
    return Json(branch_predictor_name(value));
  } else {
    return Json(value);
  }
}

// Throws for a member of `j` that `written`, a writer's output, lacks: a
// typo'd field would otherwise be dropped, and the daemon would simulate a
// machine nobody asked for.
void reject_unwritten(const Json& j, const Json& written) {
  for (const auto& member : j.members()) {
    if (written.find(member.first) == nullptr) {
      throw MemberError(member.first, "is unknown");
    }
  }
}

template <typename T>
void read_value(const Json& v, std::string_view key, T* out,
                bool require_all);

// Reads object `j` over *out, member by listed member. An absent member is
// an error under `require_all` (a cache entry holds every member) and
// otherwise keeps *out's value (a request names only what it changes).
template <typename T>
void read_members(const Json& j, T* out, bool require_all) {
  static const Json kWritten = write(T{});
  reject_unwritten(j, kWritten);
  members(*out, [&](std::string_view name, auto& field) {
    if (const Json* v = j.find(name)) {
      read_value(*v, name, &field, require_all);
    } else if (require_all) {
      throw MemberError(std::string(name), "is missing");
    }
  });
}

// Reads `v`, the value of member `key`, over *out. A member error inside
// a struct is named by its path from here.
template <typename T>
void read_value(const Json& v, std::string_view key, T* out,
                bool require_all) {
  if constexpr (std::is_same_v<T, std::vector<int>>) {
    out->resize(v.size());
    for (std::size_t i = 0; i < out->size(); ++i) {
      read_scalar(v.at(i), key, &(*out)[i]);
    }
  } else if constexpr (kIsStruct<T>) {
    if (!v.is_object()) {
      throw MemberError(std::string(key), "must be an object");
    }
    try {
      read_members(v, out, require_all);
    } catch (const MemberError& e) {
      throw e.under(key);
    }
  } else {
    read_scalar(v, key, out);
  }
}

// Reads member `key` of `j`, which must be present.
void read_required(const Json& j, std::string_view key, auto* out) {
  const Json* v = j.find(key);
  if (v == nullptr) throw MemberError(std::string(key), "is missing");
  read_value(*v, key, out, /*require_all=*/true);
}

}  // namespace

template <typename T>
void read_scalar(const Json& v, std::string_view key, T* out) {
  if constexpr (std::is_enum_v<T>) {
    std::string name;
    read_scalar(v, key, &name);
    bool known = false;
    if constexpr (std::is_same_v<T, Selector>) {
      known = selector_from_name(name, out);
    } else {
      known = branch_predictor_from_name(name, out);
    }
    if (!known) {
      throw MemberError(std::string(key),
                        "must be a known name (got \"" + name + "\")");
    }
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    // Checked against T's range: a cast would wrap the value, and the
    // request would run a machine nobody asked for.
    const auto range = [] {
      return "[" + std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]";
    };
    std::int64_t value = 0;
    try {
      value = v.as_int();
    } catch (const JsonError& e) {
      throw MemberError(std::string(key), "must be an integer in " + range() +
                                              " (" + e.what() + ")");
    }
    if (!std::in_range<T>(value)) {
      throw MemberError(std::string(key), "must be in " + range() + " (got " +
                                              std::to_string(value) + ")");
    }
    *out = static_cast<T>(value);
  } else {
    try {
      if constexpr (std::is_same_v<T, bool>) {
        *out = v.as_bool();
      } else if constexpr (std::is_same_v<T, double>) {
        *out = v.as_double();
      } else {
        *out = v.as_string();
      }
    } catch (const JsonError& e) {
      const char* want = std::is_same_v<T, bool>     ? "a boolean"
                         : std::is_same_v<T, double> ? "a number"
                                                     : "a string";
      throw MemberError(std::string(key),
                        std::string("must be ") + want + " (" + e.what() + ")");
    }
  }
}

template void read_scalar(const Json&, std::string_view, bool*);
template void read_scalar(const Json&, std::string_view, double*);
template void read_scalar(const Json&, std::string_view, std::uint64_t*);

Json to_json(const CacheStats& stats) { return write(stats); }
Json to_json(const PfuStats& stats) { return write(stats); }
Json to_json(const BranchStats& stats) { return write(stats); }
Json to_json(const SimStats& stats) { return write(stats); }

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
  // Hex: a full 64-bit fingerprint, and Json integers are signed.
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
    case RunErrorKind::kInput: return "input";
    case RunErrorKind::kJson: return "json";
    case RunErrorKind::kCacheIo: return "cache_io";
    case RunErrorKind::kStdException: return "std_exception";
    case RunErrorKind::kUnknown: return "unknown";
  }
  return "unknown";
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

Json to_json(const CacheConfig& config) { return write(config); }
Json to_json(const TlbConfig& config) { return write(config); }
Json to_json(const PfuConfig& config) { return write(config); }
Json to_json(const BranchPredictorConfig& config) { return write(config); }
Json to_json(const MachineConfig& config) { return write(config); }
Json to_json(const ExtractPolicy& policy) { return write(policy); }
Json to_json(const SelectPolicy& policy) { return write(policy); }

Json to_json(const RunSpec& spec) {
  Json j = Json::object();
  j["workload"] = Json(spec.workload);
  j["label"] = Json(spec.label);
  // Everything below the label comes from the shared identity assembly
  // (harness/identity.hpp), the same field list the cache key embeds.
  RunIdentity::append_result_fields(spec, &j);
  return j;
}

RunSpec run_spec_from_json(const Json& j) {
  // A spec may name exactly the members its writer writes.
  static const Json kWritten = to_json(RunSpec{});
  reject_unwritten(j, kWritten);
  RunSpec spec;
  read_required(j, "workload", &spec.workload);
  const auto read_optional = [&](std::string_view key, auto* out) {
    if (const Json* v = j.find(key)) read_scalar(*v, key, out);
  };
  read_optional("label", &spec.label);
  read_optional("selector", &spec.selector);
  // Members below the machine and the policy are named by their path from
  // there, as validate() names them.
  const auto read_config = [&](std::string_view key, auto* out) {
    if (const Json* v = j.find(key)) {
      if (!v->is_object()) {
        throw MemberError(std::string(key), "must be an object");
      }
      read_members(*v, out, /*require_all=*/false);
    }
  };
  read_config("machine", &spec.machine);
  read_config("policy", &spec.policy);
  read_optional("max_cycles", &spec.max_cycles);
  read_optional("verify", &spec.verify);
  read_optional("observe", &spec.observe);
  if (const std::string bad = validate(spec.machine); !bad.empty()) {
    throw JsonError("machine config: " + bad);
  }
  if (const std::string bad = validate(spec.policy); !bad.empty()) {
    throw JsonError("select policy: " + bad);
  }
  return spec;
}

StallBreakdown stall_breakdown_from_json(const Json& j) {
  StallBreakdown s;
  read_required(j, "cycles", &s.cycles);
  read_required(j, "commit_cycles", &s.commit_cycles);
  const Json& causes = j.at("causes");
  for (int c = 0; c < kNumStallCauses; ++c) {
    read_required(causes, stall_cause_name(static_cast<StallCause>(c)),
                  &s.causes[c]);
  }
  return s;
}

RunOutcome run_outcome_from_json(const Json& j) {
  RunOutcome out;
  read_required(j, "stats", &out.stats);
  read_required(j, "num_configs", &out.num_configs);
  read_required(j, "num_apps", &out.num_apps);
  read_required(j, "lengths", &out.lengths);
  read_required(j, "lut_costs", &out.lut_costs);
  read_required(j, "checksum", &out.checksum);
  read_required(j, "trace_steps", &out.trace_steps);
  // Exactly the 16 lowercase hex digits to_hex writes.
  std::string hash;
  read_required(j, "trace_hash", &hash);
  std::from_chars(hash.data(), hash.data() + hash.size(), out.trace_hash, 16);
  if (to_hex(out.trace_hash) != hash) {
    throw MemberError("trace_hash", "must be 16 lowercase hex digits");
  }
  if (const Json* stalls = j.find("stalls")) {
    out.observed = true;
    out.stalls = stall_breakdown_from_json(*stalls);
  }
  return out;
}

}  // namespace t1000
