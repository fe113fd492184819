#include "harness/grid.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/diagnostic.hpp"
#include "asmkit/assembler.hpp"
#include "asmkit/objfile.hpp"
#include "harness/identity.hpp"
#include "harness/report.hpp"
#include "harness/serialize.hpp"
#include "isa/encoding.hpp"
#include "minic/token.hpp"
#include "sim/executor.hpp"
#include "sim/memory.hpp"

namespace t1000 {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Per-workload lazily built shared state. The program hash is cheap (one
// assembly pass) and unlocks cache hits without profiling; the full
// WorkloadExperiment (profile + extraction + baseline run) is only built
// when some spec actually misses the cache, and lives only until the last
// group naming the workload finishes.
struct WorkloadSlot {
  const Workload* workload = nullptr;
  ExperimentObs obs;  // set before the workers start

  std::once_flag hash_once;
  std::uint64_t hash = 0;
  std::exception_ptr hash_error;

  std::once_flag experiment_once;
  std::unique_ptr<WorkloadExperiment> experiment;
  std::exception_ptr experiment_error;

  // Takes a hash computed before the grid ran (memory_resident()).
  void seed_hash(std::uint64_t known) {
    std::call_once(hash_once, [&] { hash = known; });
  }

  std::uint64_t program_hash_for() {
    std::call_once(hash_once, [this] {
      try {
        hash = program_hash(workload_program(*workload));
      } catch (...) {
        hash_error = std::current_exception();
      }
    });
    if (hash_error) std::rethrow_exception(hash_error);
    return hash;
  }

  const WorkloadExperiment& experiment_for() {
    std::call_once(experiment_once, [this] {
      try {
        experiment = std::make_unique<WorkloadExperiment>(*workload, obs);
      } catch (...) {
        experiment_error = std::current_exception();
      }
    });
    if (experiment_error) std::rethrow_exception(experiment_error);
    return *experiment;
  }

  // Groups naming this workload that have not finished. The worker that
  // finishes the last one copies out the counters the engine totals read
  // and frees the experiment, whose traces would otherwise stay resident
  // until the whole grid ends. The atomic decrement orders every other
  // worker's use of the experiment before the free.
  std::atomic<std::size_t> groups_left{0};
  WorkloadExperiment::TraceCounters traces;
  WorkloadExperiment::VerifyCounters verify;

  void finish_group() {
    if (--groups_left > 0) return;
    if (!experiment) return;
    traces = experiment->trace_counters();
    verify = experiment->verify_counters();
    experiment.reset();
  }
};

// A queued spec as the grid runs it. The grid-wide flags are stamped on
// before the cache key is built: verified (or observed) runs must not
// share entries with unverified (or unobserved) ones.
RunSpec stamped(const RunSpec& spec, const GridOptions& options) {
  RunSpec out = spec;
  if (options.verify) out.verify = true;
  if (options.observe) out.observe = true;
  return out;
}

}  // namespace

RunErrorKind classify_current_exception(std::string* message) {
  const auto classify = [&](const std::exception& e, RunErrorKind kind) {
    *message = e.what();
    return kind;
  };
  try {
    throw;
  } catch (const VerifyError& e) {
    return classify(e, RunErrorKind::kVerify);
  } catch (const SimError& e) {
    return classify(e, RunErrorKind::kSim);
  } catch (const MemError& e) {
    return classify(e, RunErrorKind::kSim);
  } catch (const AsmError& e) {
    return classify(e, RunErrorKind::kInput);
  } catch (const ObjError& e) {
    return classify(e, RunErrorKind::kInput);
  } catch (const minic::CompileError& e) {
    return classify(e, RunErrorKind::kInput);
  } catch (const EncodingError& e) {
    return classify(e, RunErrorKind::kInput);
  } catch (const JsonError& e) {
    return classify(e, RunErrorKind::kJson);
  } catch (const CacheIoError& e) {
    return classify(e, RunErrorKind::kCacheIo);
  } catch (const std::exception& e) {
    return classify(e, RunErrorKind::kStdException);
  } catch (...) {
    *message = "non-std::exception thrown";
    return RunErrorKind::kUnknown;
  }
}

GridResult::GridResult(std::vector<RunResult> runs, EngineStats engine)
    : runs_(std::move(runs)), engine_(engine) {}

const RunResult& GridResult::at(std::string_view workload,
                                std::string_view label) const {
  for (const RunResult& r : runs_) {
    if (r.spec.workload == workload && r.spec.label == label) return r;
  }
  std::string what = "no grid result for (" + std::string(workload) + ", " +
                     std::string(label) + ")";
  if (engine_.incomplete() > 0) {
    what += strprintf(" [%llu of %llu runs did not complete]",
                      static_cast<unsigned long long>(engine_.incomplete()),
                      static_cast<unsigned long long>(engine_.runs));
  }
  throw std::out_of_range(what);
}

bool GridResult::workload_ok(std::string_view workload) const {
  bool any = false;
  for (const RunResult& r : runs_) {
    if (r.spec.workload != workload) continue;
    if (!r.ok()) return false;
    any = true;
  }
  return any;
}

const RunOutcome& GridResult::outcome(std::string_view workload,
                                      std::string_view label) const {
  const RunResult& r = at(workload, label);
  if (!r.ok()) {
    throw std::runtime_error(
        "grid run (" + std::string(workload) + ", " + std::string(label) +
        ") did not complete: " + std::string(run_status_name(r.status)) +
        (r.error_kind == RunErrorKind::kNone
             ? ""
             : std::string(" [") + std::string(run_error_kind_name(r.error_kind)) +
                   "]") +
        (r.error.empty() ? "" : ": " + r.error));
  }
  return r.outcome;
}

Json GridResult::results_json() const {
  Json results = Json::array();
  for (const RunResult& r : runs_) {
    results.push_back(t1000::to_json(r));
  }
  return results;
}

Json GridResult::to_json() const {
  Json engine = Json::object();
  engine["jobs"] = Json(engine_.jobs);
  engine["runs"] = Json(engine_.runs);
  engine["simulated"] = Json(engine_.simulated);
  engine["ok"] = Json(engine_.ok);
  engine["failed"] = Json(engine_.failed);
  engine["timeouts"] = Json(engine_.timeouts);
  engine["skipped"] = Json(engine_.skipped);
  engine["cache_memory_hits"] = Json(engine_.cache.memory_hits);
  engine["cache_disk_hits"] = Json(engine_.cache.disk_hits);
  engine["cache_misses"] = Json(engine_.cache.misses);
  engine["cache_disk_errors"] = Json(engine_.cache.disk_errors);
  engine["cache_quarantined"] = Json(engine_.cache.quarantined);
  engine["cache_quarantine_removed"] = Json(engine_.cache.quarantine_removed);
  engine["cache_evicted"] = Json(engine_.cache.evicted);
  engine["cache_size_evicted"] = Json(engine_.cache.size_evicted);
  engine["traces_recorded"] = Json(engine_.traces_recorded);
  engine["trace_replays"] = Json(engine_.trace_replays);
  engine["shared_replays"] = Json(engine_.shared_replays);
  engine["batches"] = Json(engine_.batches);
  engine["batched_runs"] = Json(engine_.batched_runs);
  engine["observed"] = Json(engine_.observed);
  if (engine_.observed > 0) engine["stalls"] = t1000::to_json(engine_.stalls);
  engine["verified_preps"] = Json(engine_.verified_preps);
  engine["verify_ms"] = Json(engine_.verify_ms);
  engine["wall_ms"] = Json(engine_.wall_ms);
  Json run_wall = Json::array();
  Json run_cached = Json::array();
  for (const RunResult& r : runs_) {
    run_wall.push_back(Json(r.wall_ms));
    run_cached.push_back(Json(r.cache_hit));
  }
  engine["run_wall_ms"] = std::move(run_wall);
  engine["run_cache_hit"] = std::move(run_cached);

  Json doc = Json::object();
  doc["results"] = results_json();
  doc["engine"] = std::move(engine);
  return doc;
}

std::string GridResult::engine_summary() const {
  using ull = unsigned long long;
  // Built with a growing formatter: this line accretes counters across PRs
  // and must never silently truncate (pinned by a test).
  std::string out = strprintf(
      "[engine] %llu runs in %.0f ms, %d job(s); status: %llu ok, %llu"
      " failed, %llu timeout, %llu skipped; cache: %llu hit(s) (%llu memory,"
      " %llu disk), %llu simulated",
      static_cast<ull>(engine_.runs), engine_.wall_ms, engine_.jobs,
      static_cast<ull>(engine_.ok), static_cast<ull>(engine_.failed),
      static_cast<ull>(engine_.timeouts), static_cast<ull>(engine_.skipped),
      static_cast<ull>(engine_.cache.hits()),
      static_cast<ull>(engine_.cache.memory_hits),
      static_cast<ull>(engine_.cache.disk_hits),
      static_cast<ull>(engine_.simulated));
  if (engine_.cache.quarantined > 0 || engine_.cache.quarantine_removed > 0 ||
      engine_.cache.evicted > 0 || engine_.cache.size_evicted > 0 ||
      engine_.cache.disk_errors > 0) {
    // quarantine_removed stays distinct from quarantined: a removed corrupt
    // entry left no .corrupt file behind, and the summary must not claim
    // one exists.
    out += strprintf(
        " (%llu quarantined, %llu corrupt-removed, %llu evicted, %llu"
        " size-evicted, %llu disk error(s))",
        static_cast<ull>(engine_.cache.quarantined),
        static_cast<ull>(engine_.cache.quarantine_removed),
        static_cast<ull>(engine_.cache.evicted),
        static_cast<ull>(engine_.cache.size_evicted),
        static_cast<ull>(engine_.cache.disk_errors));
  }
  out += strprintf("; traces: %llu recorded, %llu replayed",
                   static_cast<ull>(engine_.traces_recorded),
                   static_cast<ull>(engine_.trace_replays));
  if (engine_.shared_replays > 0) {
    out += strprintf("; shared replays: %llu",
                     static_cast<ull>(engine_.shared_replays));
  }
  if (engine_.batches > 0) {
    out += strprintf("; batches: %llu (%llu lane(s))",
                     static_cast<ull>(engine_.batches),
                     static_cast<ull>(engine_.batched_runs));
  }
  if (engine_.verified_preps > 0) {
    out += strprintf("; verify: %llu preparation(s) in %.1f ms",
                     static_cast<ull>(engine_.verified_preps),
                     engine_.verify_ms);
  }
  if (engine_.observed > 0) {
    const std::uint64_t stall = engine_.stalls.stall_cycles();
    out += strprintf("; stalls: %llu observed run(s), %llu/%llu stall cycle(s)",
                     static_cast<ull>(engine_.observed),
                     static_cast<ull>(stall),
                     static_cast<ull>(engine_.stalls.cycles));
    if (stall > 0) {
      int top = 0;
      for (int c = 1; c < kNumStallCauses; ++c) {
        if (engine_.stalls.causes[c] > engine_.stalls.causes[top]) top = c;
      }
      out += strprintf(
          " (top: %s %.1f%%)",
          std::string(stall_cause_name(static_cast<StallCause>(top))).c_str(),
          100.0 * static_cast<double>(engine_.stalls.causes[top]) /
              static_cast<double>(stall));
    }
  }
  return out;
}

void ExperimentGrid::add_workload(const Workload& workload) {
  const auto it = index_.find(workload.name);
  if (it != index_.end()) {
    workloads_[it->second] = workload;
    if (it->second < program_hashes_.size()) {
      program_hashes_[it->second].reset();
    }
    return;
  }
  index_.emplace(workload.name, workloads_.size());
  workloads_.push_back(workload);
}

void ExperimentGrid::add_workloads(const std::vector<Workload>& workloads) {
  for (const Workload& w : workloads) add_workload(w);
}

void ExperimentGrid::add(RunSpec spec) {
  if (index_.find(spec.workload) == index_.end()) {
    throw std::invalid_argument("ExperimentGrid: unregistered workload '" +
                                spec.workload + "'");
  }
  // (workload, label) is the lookup key of GridResult::at(); duplicates
  // would shadow each other silently.
  for (const RunSpec& existing : specs_) {
    if (existing.workload == spec.workload && existing.label == spec.label) {
      throw std::invalid_argument("ExperimentGrid: duplicate spec (" +
                                  spec.workload + ", " + spec.label + ")");
    }
  }
  specs_.push_back(std::move(spec));
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

GridResult ExperimentGrid::run(const GridOptions& options) const {
  const auto grid_start = std::chrono::steady_clock::now();
  const int jobs = std::max(
      1, std::min<int>(resolve_jobs(options.jobs),
                       static_cast<int>(std::max<std::size_t>(specs_.size(), 1))));

  // Metrics instruments are resolved once, up front; the per-run updates in
  // the workers are then lock-free saturating atomics.
  struct GridInstruments {
    obs::Counter* runs = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* simulated = nullptr;
    obs::Counter* incomplete = nullptr;
    obs::Histogram* run_wall_ms = nullptr;
    obs::Histogram* cache_phase_ms = nullptr;
  } metrics;
  if (options.metrics != nullptr) {
    metrics.runs = options.metrics->counter("grid.runs");
    metrics.cache_hits = options.metrics->counter("grid.cache_hits");
    metrics.simulated = options.metrics->counter("grid.simulated");
    metrics.incomplete = options.metrics->counter("grid.runs_incomplete");
    metrics.run_wall_ms = options.metrics->histogram(
        "grid.run_wall_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                             5000, 10000});
    metrics.cache_phase_ms = phase_histogram(options.metrics, "cache");
  }

  ResultCache local_cache(options.cache_dir, options.cache_budget_bytes);
  ResultCache& cache = options.cache != nullptr ? *options.cache : local_cache;
  // This grid's own cache traffic: a borrowed cache's counters also hold
  // every other grid's, before this one and while it runs.
  ResultCache::Counters cache_counts;
  std::vector<WorkloadSlot> slots(workloads_.size());
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    slots[i].workload = &workloads_[i];
    slots[i].obs = ExperimentObs{options.metrics, options.journal};
    if (i < program_hashes_.size() && program_hashes_[i]) {
      slots[i].seed_hash(*program_hashes_[i]);
    }
  }
  const auto slot_of = [&](const RunSpec& spec) -> WorkloadSlot& {
    return slots[index_.find(spec.workload)->second];
  };

  // Journal emission helpers: cache operations become timed instants (the
  // "cache" phase), runs and batches become spans the experiment's phase
  // spans parent under. All of it no-ops without a journal + active trace.
  obs::Journal* const journal = options.journal;
  const auto cache_lookup = [&](ResultCache& c, const CacheKey& key,
                                RunOutcome* outcome) {
    const auto start = std::chrono::steady_clock::now();
    const bool hit = c.lookup(key, outcome, &cache_counts);
    if (metrics.cache_phase_ms != nullptr) {
      metrics.cache_phase_ms->observe(
          static_cast<std::uint64_t>(ms_since(start)));
    }
    if (journal != nullptr) {
      Json attrs = Json::object();
      attrs["hit"] = Json(hit);
      journal->instant(obs::current_trace_context(), "cache.lookup",
                       std::move(attrs));
    }
    return hit;
  };
  const auto cache_store = [&](ResultCache& c, const CacheKey& key,
                               const RunOutcome& outcome) {
    const auto start = std::chrono::steady_clock::now();
    c.store(key, outcome, &cache_counts);
    if (metrics.cache_phase_ms != nullptr) {
      metrics.cache_phase_ms->observe(
          static_cast<std::uint64_t>(ms_since(start)));
    }
    if (journal != nullptr) {
      journal->instant(obs::current_trace_context(), "cache.store");
    }
  };
  const auto run_attrs = [](const RunSpec& spec) {
    Json attrs = Json::object();
    attrs["workload"] = Json(spec.workload);
    attrs["label"] = Json(spec.label);
    return attrs;
  };

  // The scheduling unit is a group of spec indices. Without batching every
  // group is a singleton and the engine behaves exactly as it always has;
  // with batching, specs sharing a batch identity (RunIdentity::batch_key)
  // form one group whose cache misses are timed as lanes of a single
  // WorkloadExperiment::run_batch call. Grouping is greedy in insertion
  // order, so results stay deterministic regardless of jobs or batching.
  const bool batching = options.batch && options.run_budget_ms <= 0;
  std::vector<std::vector<std::size_t>> groups;
  {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (!batching) {
        groups.push_back({i});
        continue;
      }
      RunSpec spec = specs_[i];
      if (options.verify) spec.verify = true;  // verify is part of the key
      const auto [it, fresh] =
          group_of.emplace(RunIdentity::batch_key(spec), groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  for (const std::vector<std::size_t>& group : groups) {
    // A group never spans workloads: the batch identity includes it.
    ++slot_of(specs_[group.front()]).groups_left;
  }

  std::vector<RunResult> results(specs_.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_runs{0};

  // Every path below — a singleton group's run, a batch lane, a duplicate
  // served after its twin — ends a run through exactly one of skip, finish
  // or fail, so the status, wall_ms and metrics of a run never depend on
  // which path produced it.
  const auto skip = [&](RunResult& out) {
    out.status = RunStatus::kSkipped;
    out.error = "skipped: the grid's fail limit was reached";
  };
  // A GridTimeoutError is a timeout, anything else an error of its
  // classified kind. Trips the fail-limit abort. Never lets a worker exit
  // early — the queue must drain so every spec gets a status.
  const auto fail = [&](RunResult& out, double wall_ms,
                        std::exception_ptr error) {
    out.wall_ms = wall_ms;
    out.outcome = RunOutcome{};  // drop any partially filled outcome
    try {
      std::rethrow_exception(error);
    } catch (const GridTimeoutError& e) {
      out.status = RunStatus::kTimeout;
      out.error_kind = RunErrorKind::kNone;
      out.error = e.what();
    } catch (...) {
      out.status = RunStatus::kError;
      out.error_kind = classify_current_exception(&out.error);
    }
    if (metrics.incomplete != nullptr) metrics.incomplete->add(1);
    const std::uint64_t count =
        failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.fail_limit > 0 && count >= options.fail_limit) {
      abort.store(true, std::memory_order_relaxed);
    }
  };
  // A run whose outcome is in hand, from the cache or a simulation. The
  // budget is checked after the fact: a slow run is a timeout.
  const auto finish = [&](RunResult& out, double wall_ms) {
    if (metrics.runs != nullptr) {
      metrics.runs->add(1);
      if (out.cache_hit) metrics.cache_hits->add(1);
      else metrics.simulated->add(1);
    }
    out.wall_ms = wall_ms;
    if (metrics.run_wall_ms != nullptr) {
      metrics.run_wall_ms->observe(static_cast<std::uint64_t>(wall_ms));
    }
    if (options.run_budget_ms > 0 && wall_ms > options.run_budget_ms) {
      fail(out, wall_ms,
           std::make_exception_ptr(GridTimeoutError(strprintf(
               "run exceeded wall-clock budget: %.1f ms > %.1f ms", wall_ms,
               options.run_budget_ms))));
    } else {
      out.status = RunStatus::kOk;
    }
  };
  // A cache miss simulated on its own, inside a "run" span the
  // experiment's phase spans parent under.
  const auto run_solo = [&](RunResult& out, const CacheKey& key) {
    obs::Journal::SpanScope run_span(journal, obs::current_trace_context(),
                                     "run", run_attrs(out.spec));
    const obs::ScopedTraceContext run_scope(run_span.context());
    out.outcome = slot_of(out.spec).experiment_for().run(out.spec);
    cache_store(cache, key, out.outcome);
  };

  const auto worker = [&] {
    // The grid's trace crosses the thread boundary here: each worker
    // installs it so every emission below (and the experiment phases
    // underneath) lands in the right trace.
    const obs::ScopedTraceContext grid_scope(options.trace);
    for (;;) {
      const std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups.size()) return;
      const std::vector<std::size_t>& group = groups[g];
      // Stage 1: per-run pre-flight — flag stamping, abort check, fault
      // hook, cache lookup — and, for singleton groups, the run itself.
      // Multi-spec groups only defer the simulation of their cache misses
      // to stage 2.
      std::vector<std::size_t> misses;
      std::vector<CacheKey> miss_keys;
      // Specs whose key duplicates an earlier miss in this group: served
      // from the cache after the batch stores, reproducing the sequential
      // path's dedup (one simulation, one memory hit) and its counters.
      std::vector<std::size_t> duplicates;
      std::vector<CacheKey> duplicate_keys;
      for (const std::size_t i : group) {
        RunResult& out = results[i];
        out.spec = stamped(specs_[i], options);
        if (abort.load(std::memory_order_relaxed)) {
          skip(out);
          continue;
        }
        const auto run_start = std::chrono::steady_clock::now();
        try {
          if (options.fault_hook) options.fault_hook(out.spec);
          WorkloadSlot& slot = slot_of(out.spec);
          const CacheKey key = make_cache_key(
              out.spec, slot.program_hash_for(), slot.workload->max_steps);
          if (std::any_of(miss_keys.begin(), miss_keys.end(),
                          [&](const CacheKey& seen) {
                            return seen.text == key.text;
                          })) {
            // Looking it up now would count a spurious miss; sequentially
            // it would have hit the entry its twin already stored.
            duplicates.push_back(i);
            duplicate_keys.push_back(key);
            continue;
          }
          if (cache_lookup(cache, key, &out.outcome)) {
            out.cache_hit = true;
          } else if (group.size() > 1) {
            misses.push_back(i);
            miss_keys.push_back(key);
            continue;
          } else {
            run_solo(out, key);
          }
          finish(out, ms_since(run_start));
        } catch (...) {
          fail(out, ms_since(run_start), std::current_exception());
        }
      }
      if (!misses.empty()) {
        // Stage 2: one batched run over the group's cache misses.
        // Lane outcomes are byte-identical to sequential runs (pinned by
        // tests); lane failures surface per run, and a whole-sweep failure
        // (experiment construction, trace recording) fails every lane
        // identically, as N sequential runs would have.
        const auto batch_start = std::chrono::steady_clock::now();
        std::vector<RunSpec> lane_specs;
        lane_specs.reserve(misses.size());
        for (const std::size_t i : misses) {
          lane_specs.push_back(results[i].spec);
        }
        std::vector<WorkloadExperiment::BatchRunOutcome> lanes;
        std::exception_ptr batch_error;
        try {
          Json batch_attrs = run_attrs(lane_specs.front());
          batch_attrs["lanes"] = Json(misses.size());
          obs::Journal::SpanScope batch_span(journal,
                                             obs::current_trace_context(),
                                             "batch", std::move(batch_attrs));
          const obs::ScopedTraceContext batch_scope(batch_span.context());
          lanes = slot_of(lane_specs.front()).experiment_for().run_batch(
              lane_specs);
          batches.fetch_add(1, std::memory_order_relaxed);
          batched_runs.fetch_add(misses.size(), std::memory_order_relaxed);
        } catch (...) {
          batch_error = std::current_exception();
        }
        // The sweep's wall-clock is shared work; attribute it evenly so
        // per-run timings stay comparable across the two paths.
        const double per_run_ms =
            ms_since(batch_start) / static_cast<double>(misses.size());
        for (std::size_t k = 0; k < misses.size(); ++k) {
          RunResult& out = results[misses[k]];
          const std::exception_ptr error =
              batch_error ? batch_error : lanes[k].error;
          if (error) {
            fail(out, per_run_ms, error);
            continue;
          }
          out.outcome = lanes[k].outcome;
          cache_store(cache, miss_keys[k], out.outcome);
          finish(out, per_run_ms);
        }
      }
      // Duplicates ride on the entry their twin stored; when the twin's
      // lane failed, the retry lookup misses and the run executes alone,
      // exactly as the sequential path would have.
      for (std::size_t k = 0; k < duplicates.size(); ++k) {
        RunResult& out = results[duplicates[k]];
        if (abort.load(std::memory_order_relaxed)) {
          skip(out);
          continue;
        }
        const auto run_start = std::chrono::steady_clock::now();
        try {
          if (cache_lookup(cache, duplicate_keys[k], &out.outcome)) {
            out.cache_hit = true;
          } else {
            run_solo(out, duplicate_keys[k]);
          }
          finish(out, ms_since(run_start));
        } catch (...) {
          fail(out, ms_since(run_start), std::current_exception());
        }
      }
      slot_of(specs_[group.front()]).finish_group();
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  EngineStats engine;
  engine.jobs = jobs;
  engine.runs = specs_.size();
  for (const RunResult& r : results) {
    switch (r.status) {
      case RunStatus::kOk: ++engine.ok; break;
      case RunStatus::kError: ++engine.failed; break;
      case RunStatus::kTimeout: ++engine.timeouts; break;
      case RunStatus::kSkipped: ++engine.skipped; break;
    }
    if (r.ok() && r.outcome.observed) {
      ++engine.observed;
      engine.stalls.accumulate(r.outcome.stalls);
    }
  }
  engine.cache = cache_counts;
  engine.simulated = engine.cache.misses;
  engine.batches = batches.load(std::memory_order_relaxed);
  engine.batched_runs = batched_runs.load(std::memory_order_relaxed);
  for (const WorkloadSlot& slot : slots) {
    engine.traces_recorded += slot.traces.recorded;
    engine.trace_replays += slot.traces.reused;
    engine.shared_replays += slot.traces.shared_replays;
    engine.verified_preps += slot.verify.reports;
    engine.verify_ms += slot.verify.wall_ms;
  }
  engine.wall_ms = ms_since(grid_start);
  return GridResult(std::move(results), engine);
}

bool ExperimentGrid::memory_resident(const ResultCache& cache,
                                     const GridOptions& options) {
  program_hashes_.resize(workloads_.size());
  for (const RunSpec& spec : specs_) {
    const std::size_t w = index_.find(spec.workload)->second;
    std::optional<std::uint64_t>& hash = program_hashes_[w];
    if (!hash) hash = program_hash(workload_program(workloads_[w]));
    const CacheKey key = make_cache_key(stamped(spec, options), *hash,
                                        workloads_[w].max_steps);
    if (!cache.in_memory(key)) return false;
  }
  return true;
}

BenchOptions parse_bench_options(int argc, char** argv,
                                 const std::string& name,
                                 const std::string& summary) {
  BenchOptions out;
  const CacheDefaults cache = cache_defaults_from_env(name);
  out.grid.cache_dir = cache.dir;

  // Far beyond any sane thread count, but small enough that the int cast
  // and per-worker allocations cannot overflow or OOM from a typo'd value.
  constexpr long kMaxJobs = 1 << 15;
  long jobs = 0;
  long cache_budget = cache.budget_bytes;
  double run_budget_ms = 0.0;
  bool no_cache = false;
  bool no_batch = false;
  bool strict = false;
  OptionParser parser(name, summary);
  parser.add_int("--jobs", "N", "worker threads (default: all hardware threads)",
                 &jobs, 0, kMaxJobs);
  parser.add_string("--json", "FILE", "also write results + engine stats as JSON",
                    &out.json_path);
  parser.add_string("--cache-dir", "DIR",
                    "on-disk result cache (default: $T1000_CACHE_DIR or "
                    ".t1000-cache)",
                    &out.grid.cache_dir);
  parser.add_flag("--no-cache", "disable the on-disk result cache", &no_cache);
  parser.add_int("--cache-budget-bytes", "N",
                 "size budget for the on-disk cache; least-recently-used "
                 "entries are evicted to fit (default: "
                 "$T1000_CACHE_BUDGET_BYTES or unbounded)",
                 &cache_budget, 0, std::numeric_limits<long>::max());
  parser.add_flag("--no-batch",
                  "time each run as an independent replay instead of batching "
                  "runs that share a prepared trace (results are identical)",
                  &no_batch);
  parser.add_flag("--verify",
                  "statically verify every selection/rewrite before "
                  "simulating it (failures are recorded as verify errors)",
                  &out.grid.verify);
  parser.add_flag("--observe",
                  "attribute stall cycles on every run (adds a 'stalls' "
                  "breakdown to each outcome and a grid-level aggregate)",
                  &out.grid.observe);
  parser.add_string("--metrics-out", "FILE",
                    "write the engine's metrics registry (grid.* counters "
                    "and histograms) as JSON",
                    &out.metrics_path);
  long journal_max_bytes = 64l << 20;
  parser.add_string("--journal-out", "FILE",
                    "append-only JSONL event journal of the grid's "
                    "run/batch/cache/phase spans (one JSON object per line)",
                    &out.journal_path);
  parser.add_int("--journal-max-bytes", "N",
                 "rotate the journal to FILE.1 past this size (default: "
                 "64 MiB)",
                 &journal_max_bytes, 1, std::numeric_limits<long>::max());
  parser.add_flag("--strict",
                  "skip the remaining runs after the first failing one "
                  "(default: record the failure and keep going)",
                  &strict);
  parser.add_flag("--keep-going",
                  "exit 0 even when some runs failed (failures still show in "
                  "the summary and JSON)",
                  &out.keep_going);
  parser.add_double("--run-budget-ms", "MS",
                    "per-run wall-clock budget; slower runs are recorded as "
                    "timeouts (default: unlimited)",
                    &run_budget_ms);
  parser.set_positional("", 0, 0);
  parser.parse(argc, argv);

  out.grid.jobs = static_cast<int>(jobs);
  out.grid.run_budget_ms = run_budget_ms;
  out.grid.batch = !no_batch;
  if (strict) out.grid.fail_limit = 1;
  out.grid.cache_budget_bytes = static_cast<std::uint64_t>(cache_budget);
  if (no_cache) out.grid.cache_dir.clear();
  if (!out.metrics_path.empty()) {
    out.metrics = std::make_shared<obs::MetricsRegistry>();
    out.grid.metrics = out.metrics.get();
  }
  if (!out.journal_path.empty()) {
    obs::Journal::Options jopts;
    jopts.path = out.journal_path;
    jopts.max_bytes = static_cast<std::uint64_t>(journal_max_bytes);
    out.journal = std::make_shared<obs::Journal>(std::move(jopts));
    out.grid.journal = out.journal.get();
    // The whole bench invocation is one trace rooted at span 0.
    out.grid.trace = obs::TraceContext{out.journal->new_id(), 0};
  }
  return out;
}

int finish_bench(const GridResult& result, const BenchOptions& options) {
  if (!options.json_path.empty() &&
      !write_json_file(options.json_path, result.to_json())) {
    return 1;
  }
  if (!options.metrics_path.empty() && options.metrics != nullptr &&
      !write_json_file(options.metrics_path, options.metrics->to_json())) {
    return 1;
  }
  std::printf("%s\n", result.engine_summary().c_str());
  const EngineStats& engine = result.engine();
  if (engine.incomplete() == 0) return 0;
  using ull = unsigned long long;
  std::fprintf(stderr,
               "[engine] %llu of %llu run(s) did not complete (%llu failed, "
               "%llu timeout, %llu skipped)%s\n",
               static_cast<ull>(engine.incomplete()),
               static_cast<ull>(engine.runs), static_cast<ull>(engine.failed),
               static_cast<ull>(engine.timeouts),
               static_cast<ull>(engine.skipped),
               options.keep_going ? "; --keep-going, exiting 0" : "");
  return options.keep_going ? 0 : 1;
}

}  // namespace t1000
