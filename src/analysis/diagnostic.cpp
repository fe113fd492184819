#include "analysis/diagnostic.hpp"

namespace t1000 {

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

int VerifyReport::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

int VerifyReport::warnings() const {
  return static_cast<int>(diagnostics.size()) - errors();
}

std::string VerifyReport::summary() const {
  if (diagnostics.empty()) return "ok";
  std::string out = std::to_string(errors()) + " error(s), " +
                    std::to_string(warnings()) + " warning(s)";
  for (const Diagnostic& d : diagnostics) {
    if (d.severity != Severity::kError) continue;
    out += " [first: " + d.rule_id + " @ " + d.location + ": " + d.message +
           "]";
    break;
  }
  return out;
}

Json to_json(const VerifyReport& report) {
  Json diags = Json::array();
  for (const Diagnostic& d : report.diagnostics) {
    Json j = Json::object();
    j["severity"] = Json(severity_name(d.severity));
    j["rule_id"] = Json(d.rule_id);
    j["location"] = Json(d.location);
    j["message"] = Json(d.message);
    diags.push_back(std::move(j));
  }

  Json stats = Json::object();
  stats["configs"] = Json(report.stats.configs);
  stats["apps"] = Json(report.stats.apps);
  stats["translation_proven"] = Json(report.stats.translation_proven);
  stats["width_static_proven"] = Json(report.stats.width_static_proven);
  stats["width_profile_only"] = Json(report.stats.width_profile_only);

  Json doc = Json::object();
  doc["ok"] = Json(report.ok());
  doc["errors"] = Json(report.errors());
  doc["warnings"] = Json(report.warnings());
  doc["diagnostics"] = std::move(diags);
  doc["stats"] = std::move(stats);
  doc["width_audit"] = Json::array_of(report.width_audit);
  return doc;
}

Json to_json(const VerifyTiming& timing) {
  Json j = Json::object();
  j["wellformed_ms"] = Json(timing.wellformed_ms);
  j["legality_ms"] = Json(timing.legality_ms);
  j["width_ms"] = Json(timing.width_ms);
  j["translation_ms"] = Json(timing.translation_ms);
  j["total_ms"] = Json(timing.total_ms);
  return j;
}

}  // namespace t1000
