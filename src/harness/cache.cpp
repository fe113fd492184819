#include "harness/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/identity.hpp"
#include "harness/serialize.hpp"
#include "sim/trace.hpp"
#include "sim/ucode.hpp"

namespace t1000 {
namespace {

namespace fs = std::filesystem;

// v2: replay-backed runs — keys grew the trace identity (max_steps +
// trace format version), outcomes grew trace_steps/trace_hash.
// v3: keys grew the verify flag — a verified run is a distinct entry from
// an unverified one of the same configuration.
// v4: traces are recorded through the pre-decoded uop interpreter — keys
// grew the decoded-format version, and the trace fingerprint changed
// (wider content-hash folding).
constexpr int kEntryVersion = 4;

enum class ReadStatus {
  kOk,       // file read; *out holds its bytes (possibly empty)
  kMissing,  // ENOENT: a plain cache miss, not an error
  kError,    // open or read failed for a present path (EACCES, EISDIR, ...)
};

// Distinguishes "no entry" from "entry we cannot read": only the latter is
// a disk error, and an empty-but-present file is a corrupt entry rather
// than a miss. stdio keeps errno observable — iostreams fold ENOENT,
// EACCES, and EISDIR into one failbit.
ReadStatus read_file(const std::string& path, std::string* out) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return errno == ENOENT ? ReadStatus::kMissing : ReadStatus::kError;
  }
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    text.append(buf, n);
    if (n < sizeof buf) {
      const bool failed = std::ferror(f) != 0;
      std::fclose(f);
      if (failed) return ReadStatus::kError;
      break;
    }
  }
  *out = std::move(text);
  return ReadStatus::kOk;
}

// Advisory cross-process lock on a cache directory: `<dir>/.lock` held via
// flock(2) for the scope of the object. Mutating disk operations (store,
// eviction, janitor) take it so probe-and-rename sequences are atomic with
// respect to every other lock-holding writer on the same directory; the
// read path never does (rename publication keeps readers safe for free).
// Degrades gracefully: if the lock file cannot be opened or locked the
// operation proceeds unlocked — exactly the pre-lock behaviour — because
// an advisory lock that fails open must not turn a working cache into a
// dead one.
class DirLock {
 public:
  explicit DirLock(const std::string& dir) {
    const std::string path = dir + "/.lock";
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd_ < 0) return;
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

// Healthy entry files are named `<16 hex>.json`; everything else in the
// directory (lock file, temp files, quarantine files) is not an entry and
// is never budget-counted or budget-evicted.
bool is_entry_name(const std::string& name) {
  constexpr std::string_view kExt = ".json";
  if (name.size() != 16 + kExt.size()) return false;
  if (std::string_view(name).substr(16) != kExt) return false;
  return std::all_of(name.begin(), name.begin() + 16, [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

bool name_is_temp(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

bool name_is_corrupt(const std::string& name) {
  constexpr std::string_view kExt = ".corrupt";
  return name.size() >= kExt.size() &&
         std::string_view(name).substr(name.size() - kExt.size()) == kExt;
}

double file_age_seconds(const fs::directory_entry& entry,
                        std::error_code& ec) {
  const fs::file_time_type mtime = entry.last_write_time(ec);
  if (ec) return 0.0;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration<double>(age).count();
}

}  // namespace

std::uint64_t program_hash(const Program& program) {
  const std::vector<std::uint32_t> words = program.encode_text();
  std::uint64_t h = fnv1a64(words.data(), words.size() * sizeof(words[0]));
  if (!program.data.empty()) {
    h = fnv1a64(program.data.data(), program.data.size(), h);
  }
  // Hash the sizes too so (empty text, data X) and (text X, empty data)
  // cannot alias.
  const std::uint64_t sizes[2] = {words.size(), program.data.size()};
  return fnv1a64(sizes, sizeof sizes, h);
}

CacheDefaults cache_defaults_from_env(const std::string& program) {
  CacheDefaults out;
  const char* dir = std::getenv("T1000_CACHE_DIR");
  out.dir = dir != nullptr ? dir : ".t1000-cache";
  const char* budget = std::getenv("T1000_CACHE_BUDGET_BYTES");
  if (budget == nullptr || *budget == '\0') return out;
  char* end = nullptr;
  errno = 0;
  out.budget_bytes = std::strtol(budget, &end, 10);
  if (errno != 0 || *end != '\0' || out.budget_bytes < 0) {
    std::fprintf(stderr,
                 "%s: bad value '%s' for T1000_CACHE_BUDGET_BYTES (expected "
                 "an integer in [0, %ld])\n",
                 program.c_str(), budget, std::numeric_limits<long>::max());
    std::exit(2);
  }
  return out;
}

CacheKey make_cache_key(const RunSpec& spec, std::uint64_t program_hash,
                        std::uint64_t max_steps) {
  Json identity = Json::object();
  identity["version"] = Json(kEntryVersion);
  identity["workload"] = Json(spec.workload);
  identity["program"] = Json(to_hex(program_hash));
  // The spec's result-determining fields, assembled by the one shared
  // helper (harness/identity.hpp) so the cache key, the results JSON, and
  // the grid's batch grouping can never disagree on the field list.
  RunIdentity::append_result_fields(spec, &identity);
  // Trace identity: what the replayed committed trace depends on beyond
  // the fields above (see sim/trace.hpp).
  Json trace = Json::object();
  trace["max_steps"] = Json(max_steps);
  trace["format"] = Json(kTraceFormatVersion);
  // The decoded stream the trace is recorded through: a lowering change
  // that alters observable execution must invalidate memoized outcomes.
  trace["ucode"] = Json(kUcodeFormatVersion);
  identity["trace"] = std::move(trace);
  // Note: spec.label is presentation, not identity — two labels for the
  // same configuration share one cache entry.
  CacheKey key;
  key.text = identity.dump();
  key.hash = to_hex(fnv1a64(key.text));
  return key;
}

ResultCache::ResultCache(std::string disk_dir, std::uint64_t size_budget_bytes)
    : disk_dir_(std::move(disk_dir)), size_budget_bytes_(size_budget_bytes) {}

void ResultCache::count_locked(std::uint64_t Counters::*counter,
                               Counters* tally, std::uint64_t n) {
  counters_.*counter += n;
  if (tally != nullptr) tally->*counter += n;
}

bool ResultCache::lookup(const CacheKey& key, RunOutcome* out,
                         Counters* tally) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memory_.find(key.text);
    if (it != memory_.end()) {
      *out = it->second;
      count_locked(&Counters::memory_hits, tally);
      return true;
    }
  }
  if (!disk_dir_.empty() && load_from_disk(key, out, tally)) {
    // Touch the entry so size-budget eviction is least-recently-*used*,
    // not least-recently-written. Best-effort: a concurrent eviction may
    // have removed the file between the read and the touch.
    std::error_code ec;
    fs::last_write_time(entry_path(key), fs::file_time_type::clock::now(),
                        ec);
    std::lock_guard<std::mutex> lock(mu_);
    memory_.emplace(key.text, *out);
    count_locked(&Counters::disk_hits, tally);
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  count_locked(&Counters::misses, tally);
  return false;
}

void ResultCache::store(const CacheKey& key, const RunOutcome& outcome,
                        Counters* tally) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_.insert_or_assign(key.text, outcome);
    count_locked(&Counters::stores, tally);
  }
  if (!disk_dir_.empty()) store_to_disk(key, outcome, tally);
}

bool ResultCache::in_memory(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_.count(key.text) != 0;
}

ResultCache::Counters ResultCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::string ResultCache::entry_path(const CacheKey& key) const {
  return disk_dir_ + "/" + key.hash + ".json";
}

std::uint64_t ResultCache::disk_usage_bytes() const {
  if (disk_dir_.empty()) return 0;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(disk_dir_, ec)) {
    if (!is_entry_name(entry.path().filename().string())) continue;
    std::error_code sec;
    const std::uintmax_t size = entry.file_size(sec);
    if (!sec) total += size;
  }
  return total;
}

bool ResultCache::load_from_disk(const CacheKey& key, RunOutcome* out,
                                 Counters* tally) {
  const std::string path = entry_path(key);
  std::string text;
  switch (read_file(path, &text)) {
    case ReadStatus::kMissing:
      return false;  // plain miss: nothing was ever stored here
    case ReadStatus::kError: {
      std::lock_guard<std::mutex> lock(mu_);
      count_locked(&Counters::disk_errors, tally);
      return false;
    }
    case ReadStatus::kOk:
      break;
  }
  if (text.empty()) {
    // Present but empty: a truncated entry, not a miss. Quarantine it so
    // it is never re-parsed (and re-counted) on later cold runs.
    quarantine_entry(path, tally);
    return false;
  }
  try {
    const Json entry = Json::parse(text);
    if (entry.at("version").as_int() != kEntryVersion) {
      // An older (or newer) schema cannot be trusted to round-trip through
      // this build's deserializer; quarantine it like any corrupt entry.
      quarantine_entry(path, tally);
      return false;
    }
    // Guard against hash collisions: the stored identity must match the
    // full key, not just the file name. A mismatch is a healthy entry for
    // a *different* key — a plain miss, left in place (storing this key
    // later evicts it).
    if (entry.at("key").as_string() != key.text) return false;
    *out = run_outcome_from_json(entry.at("outcome"));
    return true;
  } catch (const std::exception&) {
    // Unparseable bytes or a JSON shape run_outcome_from_json rejects:
    // corrupt either way. Keep the bytes under quarantine for debugging.
    quarantine_entry(path, tally);
    return false;
  }
}

void ResultCache::quarantine_entry(const std::string& path,
                                   Counters* tally) {
  std::error_code ec;
  fs::rename(path, path + ".corrupt", ec);
  if (!ec) {
    std::lock_guard<std::mutex> lock(mu_);
    count_locked(&Counters::quarantined, tally);
    return;
  }
  // Rename failed (cross-device, permissions, a directory squatting on the
  // quarantine name, ...): fall back to removing the entry so it cannot
  // poison future runs. That outcome is *not* a quarantine — no .corrupt
  // file exists — so it gets its own counter. A remove that finds nothing
  // lost a race with another process's quarantine/removal and counts as
  // neither: the entry is gone either way.
  std::error_code rec;
  const bool removed = fs::remove(path, rec);
  std::lock_guard<std::mutex> lock(mu_);
  if (rec) {
    count_locked(&Counters::disk_errors, tally);
  } else if (removed) {
    count_locked(&Counters::quarantine_removed, tally);
  }
}

void ResultCache::store_to_disk(const CacheKey& key,
                                const RunOutcome& outcome, Counters* tally) {
  std::error_code ec;
  fs::create_directories(disk_dir_, ec);
  if (ec) {
    std::lock_guard<std::mutex> lock(mu_);
    count_locked(&Counters::disk_errors, tally);
    return;
  }

  Json entry = Json::object();
  entry["version"] = Json(kEntryVersion);
  entry["key"] = Json(key.text);
  entry["outcome"] = to_json(outcome);
  const std::string text = entry.dump(2) + "\n";

  // Unique temp name per writer, renamed into place so concurrent writers
  // and readers only ever see complete entries.
  static std::atomic<std::uint64_t> temp_seq{0};
  const std::string temp = entry_path(key) + ".tmp." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(temp_seq.fetch_add(1));

  std::lock_guard<std::mutex> io(io_mu_);
  // Every failure path below must remove the temp: a leaked temp is crash
  // debris the janitor would otherwise have to sweep (and pre-janitor, it
  // accumulated forever). Only a successful rename consumes it.
  const auto fail_with_temp = [&] {
    std::error_code rmec;
    fs::remove(temp, rmec);
    std::lock_guard<std::mutex> lock(mu_);
    count_locked(&Counters::disk_errors, tally);
  };

  // stdio rather than iostreams so write/close failures are observable
  // per-call (a full disk or an RLIMIT_FSIZE cap surfaces at fwrite, not
  // as one folded failbit).
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    count_locked(&Counters::disk_errors, tally);
    return;
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) ==
                     text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    fail_with_temp();
    return;
  }

  // The probe-and-rename runs under the directory lock, so the eviction
  // verdict cannot be torn by another process storing the same entry
  // between the probe and the rename (the pre-lock fs::exists probe was
  // exactly that TOCTOU, and its counter drifted under contention).
  DirLock lock(disk_dir_);
  const bool evicts = fs::exists(entry_path(key), ec);
  fs::rename(temp, entry_path(key), ec);
  if (ec) {
    fail_with_temp();
    return;
  }
  if (evicts) {
    std::lock_guard<std::mutex> guard(mu_);
    count_locked(&Counters::evicted, tally);
  }
  if (size_budget_bytes_ > 0) {
    enforce_size_budget_locked(entry_path(key), tally);
  }
}

// Called with io_mu_ held and the directory lock held (or at least
// attempted) by the caller's scope: evicts least-recently-used entries
// until the summed entry size fits the budget. The just-stored entry is
// exempt — storing must always succeed, even when one entry alone exceeds
// the budget (the cache then holds exactly that entry).
void ResultCache::enforce_size_budget_locked(const std::string& just_stored,
                                             Counters* tally) {
  struct EntryInfo {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size = 0;
  };
  std::vector<EntryInfo> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(disk_dir_, ec)) {
    if (!is_entry_name(entry.path().filename().string())) continue;
    std::error_code sec;
    EntryInfo info;
    info.path = entry.path();
    info.size = entry.file_size(sec);
    if (sec) continue;
    info.mtime = entry.last_write_time(sec);
    if (sec) continue;
    total += info.size;
    entries.push_back(std::move(info));
  }
  if (total <= size_budget_bytes_) return;
  // Oldest first; ties broken by name so two same-mtime caches evict
  // identically.
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  std::uint64_t evictions = 0;
  for (const EntryInfo& info : entries) {
    if (total <= size_budget_bytes_) break;
    if (info.path == just_stored) continue;
    std::error_code rec;
    if (fs::remove(info.path, rec) && !rec) {
      total -= info.size;
      ++evictions;
    }
  }
  if (evictions > 0) {
    std::lock_guard<std::mutex> guard(mu_);
    count_locked(&Counters::size_evicted, tally, evictions);
  }
}

ResultCache::JanitorReport ResultCache::janitor_sweep(double min_age_seconds) {
  JanitorReport report;
  if (disk_dir_.empty()) return report;
  std::error_code ec;
  if (!fs::is_directory(disk_dir_, ec)) return report;

  std::lock_guard<std::mutex> io(io_mu_);
  DirLock lock(disk_dir_);
  for (const auto& entry : fs::directory_iterator(disk_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool is_temp = name_is_temp(name);
    const bool is_corrupt = !is_temp && name_is_corrupt(name);
    if (!is_temp && !is_corrupt) continue;
    std::error_code aec;
    if (file_age_seconds(entry, aec) < min_age_seconds || aec) continue;
    std::error_code rec;
    if (!fs::remove(entry.path(), rec) || rec) continue;
    if (is_temp) {
      ++report.tmp_removed;
    } else {
      ++report.corrupt_removed;
    }
  }
  return report;
}

}  // namespace t1000
