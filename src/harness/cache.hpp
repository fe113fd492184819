// Content-keyed memoization of RunOutcomes.
//
// A run is identified by everything that determines its result: the
// workload name, a hash of the assembled program (text encoding + data
// image, so edited kernels never alias stale results), the selector, and
// every machine/policy field — captured as the canonical compact JSON of
// the RunSpec plus the program hash. The cache has two levels:
//
//  * in-memory: a mutex-guarded map shared by the grid's worker threads,
//    so sweeping one axis inside a process never re-simulates a point, and
//  * on-disk (optional): one JSON file per key under a cache directory, so
//    re-running a bench binary only simulates what changed since the last
//    invocation. Files are written to a temp name and renamed into place;
//    a torn or stale file is treated as a miss, never an error.
//
// The on-disk tier is built for a directory *shared across processes* — a
// long-running t1000-serve daemon and any number of CLI tools on one
// $T1000_CACHE_DIR:
//
//  * Mutating operations (store, size-budget eviction, janitor sweep)
//    serialize under an advisory file lock (`<dir>/.lock`, flock(2)), so
//    the collision-eviction probe and the budget accounting are race-free
//    against other lock-holding writers. Lookups never take the lock:
//    rename(2) publication means a reader only ever sees complete entries.
//  * An optional size budget bounds the directory: after each store, the
//    least-recently-used entries (by mtime; disk hits touch their entry)
//    are evicted until the budget holds, so a process that never exits
//    cannot grow the cache without bound.
//  * A janitor sweep removes crash debris — orphaned `.tmp.*` files from
//    writers that died mid-store and aged `.corrupt` quarantine files —
//    older than a caller-chosen TTL, so debris never accumulates.
//
// The on-disk level is self-healing: a corrupt or version-mismatched entry
// (torn write, garbage, truncated-to-empty, valid JSON from an older
// schema) is quarantined exactly once — renamed to `<entry>.corrupt` so
// the bytes survive for debugging but never get re-parsed — and the next
// store rewrites a fresh entry, so one bad file costs one extra
// simulation, not a permanent per-cold-run error.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "harness/experiment.hpp"

namespace t1000 {

// Cache-layer I/O failure. The cache itself never throws (unreadable disks
// degrade to misses and counters); the type exists so layers above it —
// the grid's error taxonomy, test fault hooks — can classify cache I/O
// failures distinctly from simulation or JSON errors.
class CacheIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Stable content hash of a program: FNV-1a over the encoded text segment
// and the data image.
std::uint64_t program_hash(const Program& program);

struct CacheKey {
  std::string text;  // canonical compact JSON of the identity fields
  std::string hash;  // hex fnv1a64(text); names the on-disk entry
};

// `max_steps` is the workload's functional-step bound: the committed trace
// a run replays is a function of (program, selector, policy, max_steps)
// plus the trace format version, so both are part of the identity — a
// changed bound or format can never alias a stale memoized result.
CacheKey make_cache_key(const RunSpec& spec, std::uint64_t program_hash,
                        std::uint64_t max_steps);

// The on-disk tier's defaults from the environment, shared by the benches
// and t1000-serve: the directory is $T1000_CACHE_DIR, else ".t1000-cache";
// the size budget is $T1000_CACHE_BUDGET_BYTES when set and not empty,
// else 0 (unbounded). A budget that is not a non-negative integer is
// refused as a bad --cache-budget-bytes is: a diagnostic naming the
// variable, prefixed with `program`, and exit status 2.
struct CacheDefaults {
  std::string dir;
  long budget_bytes = 0;
};
CacheDefaults cache_defaults_from_env(const std::string& program);

class ResultCache {
 public:
  struct Counters {
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t disk_errors = 0;  // real I/O failures (read/write/rename)
    // Corrupt or version-mismatched entries moved to <entry>.corrupt; each
    // bad file is quarantined exactly once, then repaired by the next store.
    std::uint64_t quarantined = 0;
    // Corrupt entries that could not be renamed to quarantine but were
    // removed instead: the poison is gone, but no .corrupt file exists, so
    // it must not count as quarantined (the counter would name a file that
    // was never created).
    std::uint64_t quarantine_removed = 0;
    // Healthy entries of a *different* key replaced by a store that
    // collided on the entry hash. The probe-and-rename runs under the
    // directory's advisory file lock, so the count is exact across
    // lock-holding writers sharing the directory.
    std::uint64_t evicted = 0;
    // Entries removed by size-budget enforcement (LRU by mtime).
    std::uint64_t size_evicted = 0;

    std::uint64_t hits() const { return memory_hits + disk_hits; }
    std::uint64_t lookups() const { return hits() + misses; }
  };

  // What one janitor pass swept. `tmp_removed` counts orphaned `.tmp.*`
  // writer debris, `corrupt_removed` aged quarantine files.
  struct JanitorReport {
    std::uint64_t tmp_removed = 0;
    std::uint64_t corrupt_removed = 0;
  };

  // `disk_dir` empty = in-memory only. The directory is created on first
  // store. `size_budget_bytes` bounds the summed size of on-disk entries
  // (0 = unbounded); enforcement runs after each store, evicting the
  // least-recently-used entries first. Thread-safe throughout.
  explicit ResultCache(std::string disk_dir = "",
                       std::uint64_t size_budget_bytes = 0);

  // On a hit fills `out` and returns true; a disk hit is also promoted
  // into the in-memory map and touches the entry's mtime so budget
  // eviction stays LRU rather than FIFO.
  //
  // Every count a lookup or store makes also goes into `tally` when one is
  // given, under the same lock as the shared counters. A caller's tally
  // thus holds its own traffic alone, however many other callers (grids
  // of a long-lived daemon) share the cache at the same time.
  bool lookup(const CacheKey& key, RunOutcome* out,
              Counters* tally = nullptr);

  void store(const CacheKey& key, const RunOutcome& outcome,
             Counters* tally = nullptr);

  // True when the in-memory tier holds `key`. Counts nothing and reads no
  // file: whether a lookup would be a memory hit.
  bool in_memory(const CacheKey& key) const;

  // Sweeps crash debris older than `min_age_seconds` from the cache
  // directory under the advisory lock: orphaned `.tmp.*` files (a writer
  // died between creating its temp and renaming it into place) and
  // `.corrupt` quarantine files (kept for debugging, not forever). A TTL
  // of zero sweeps everything — callers sharing the directory with live
  // writers should keep a TTL comfortably above one store's duration so an
  // in-flight temp is never swept out from under its writer. No-op for an
  // in-memory-only cache or when the directory does not exist.
  JanitorReport janitor_sweep(double min_age_seconds);

  Counters counters() const;
  const std::string& disk_dir() const { return disk_dir_; }
  std::uint64_t size_budget_bytes() const { return size_budget_bytes_; }

  // Summed size of the healthy on-disk entries (what the budget bounds;
  // debris and the lock file are excluded). Exposed for tests and the
  // serve layer's metrics.
  std::uint64_t disk_usage_bytes() const;

  // Where a key's on-disk entry lives; `<entry_path>.corrupt` is its
  // quarantine name. Exposed for the self-healing tests.
  std::string entry_path(const CacheKey& key) const;

 private:
  bool load_from_disk(const CacheKey& key, RunOutcome* out, Counters* tally);
  void store_to_disk(const CacheKey& key, const RunOutcome& outcome,
                     Counters* tally);
  void quarantine_entry(const std::string& path, Counters* tally);
  void enforce_size_budget_locked(const std::string& just_stored,
                                  Counters* tally);
  // Adds `n` to one counter of counters_ and of `tally`, when set. Called
  // with mu_ held.
  void count_locked(std::uint64_t Counters::*counter, Counters* tally,
                    std::uint64_t n = 1);

  std::string disk_dir_;
  std::uint64_t size_budget_bytes_ = 0;
  // Serializes this process's mutating disk operations; the advisory file
  // lock (taken inside, see cache.cpp) serializes against other processes.
  // Distinct from mu_ so counter reads never wait on I/O.
  mutable std::mutex io_mu_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, RunOutcome> memory_;
  Counters counters_;
};

}  // namespace t1000
