// Diagnostics and reports for the static-analysis layer (the T1000 IR
// verifier). A verification run produces a VerifyReport: an ordered list of
// Diagnostics — each carrying a stable machine-readable rule id — plus the
// counters that describe how much ground each check covered (applications
// proven by the symbolic translation proof, inputs whose width bound is
// static) and per-phase wall-clock.
//
// The report splits into a deterministic part (diagnostics, stats, width
// audit — byte-identical across runs, compared by CI) and a timing part
// (excluded from determinism comparisons, like the grid's "engine"
// section). to_json serializes only the deterministic part; timing has its
// own converter.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hpp"

namespace t1000 {

enum class Severity : std::uint8_t {
  kWarning,  // suspicious but not a proof of breakage; never fails a run
  kError,    // a paper invariant is violated; verification fails
};

std::string_view severity_name(Severity severity);

// One verifier finding. `rule_id` is stable and machine-readable (the rule
// catalog lives in DESIGN.md §11); `location` names the program point or
// configuration ("pos 42", "conf 3 app 7") the finding anchors to.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule_id;
  std::string location;
  std::string message;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

// How each verified property was established, and how much ground the
// checks covered. All counters are deterministic.
struct VerifyStats {
  int configs = 0;  // distinct extended-instruction configurations checked
  int apps = 0;     // rewrite applications checked
  // Applications whose semantics were proven by symbolic execution over
  // the normalized expression DAG (`equiv.symbolic` succeeded; the proof
  // covers the full 2^32 input space per port). It is the verifier's only
  // equivalence proof, so a clean report has translation_proven == apps.
  int translation_proven = 0;
  // Bitwidth soundness: inputs whose width bound is also provable from a
  // conservative static value-range argument vs. inputs where selection
  // rests on the profile's observation alone (listed in width_audit).
  int width_static_proven = 0;
  int width_profile_only = 0;

  friend bool operator==(const VerifyStats&, const VerifyStats&) = default;
};

// Per-phase wall-clock. Nondeterministic; excluded from report equality
// and from to_json(const VerifyReport&).
struct VerifyTiming {
  double wellformed_ms = 0.0;
  double legality_ms = 0.0;
  double width_ms = 0.0;
  double translation_ms = 0.0;
  double total_ms = 0.0;
};

class VerifyReport {
 public:
  std::vector<Diagnostic> diagnostics;
  VerifyStats stats;
  // Where selection relies on profile-only width claims: one entry per
  // external input without a static bound at or below the width ceiling.
  // Reported as data, not diagnostics (the paper's approach is profile-
  // driven by design); VerifyOptions::pedantic promotes them to warnings.
  std::vector<std::string> width_audit;
  VerifyTiming timing;

  int errors() const;
  int warnings() const;
  // Verification verdict: no error-severity diagnostics.
  bool ok() const { return errors() == 0; }
  // "ok" / "N error(s), M warning(s) [first: rule @ location]".
  std::string summary() const;
};

// Deterministic part only: {"diagnostics", "stats", "width_audit", "ok"}.
Json to_json(const VerifyReport& report);
Json to_json(const VerifyTiming& timing);

// Thrown by layers that treat a failed verification as a run error (the
// harness's RunSpec::verify pre-flight); classified as
// RunErrorKind::kVerify by the grid's error taxonomy.
class VerifyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace t1000
