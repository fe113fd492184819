#include "obs/prometheus.hpp"

#include <cstdlib>

namespace t1000::obs {
namespace {

bool name_char_ok(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

// The JSON dump renders tallies above INT64_MAX as decimal strings; the
// exposition reuses those exact digits so the two paths can never
// disagree on a value.
std::string value_text(const Json& value) {
  return value.is_string() ? value.as_string() : value.dump();
}

std::uint64_t u64_of(const Json& value) {
  if (value.is_string()) {
    return std::strtoull(value.as_string().c_str(), nullptr, 10);
  }
  return value.as_uint();
}

std::string double_text(double value) { return Json(value).dump(); }

// Inserts one more label into a rendered label block ("{a=\"b\"}" or "").
std::string with_label(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  std::string out = labels;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

struct Sample {
  std::string family;  // sanitized
  std::string labels;  // rendered block or empty
};

void append_type_line(std::string& out, std::string* last_family,
                      const std::string& family, std::string_view type) {
  if (*last_family == family) return;
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
  *last_family = family;
}

}  // namespace

std::string prometheus_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    out += name_char_ok(c, i == 0) ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

std::string prometheus_escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void prometheus_split_name(std::string_view name, std::string* family,
                           std::string* labels) {
  const std::size_t bar = name.find('|');
  *family = prometheus_sanitize_name(name.substr(0, bar));
  labels->clear();
  if (bar == std::string_view::npos) return;
  std::string_view rest = name.substr(bar + 1);
  std::string inner;
  while (!rest.empty()) {
    const std::size_t next = rest.find('|');
    const std::string_view pair =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    // A segment without '=' is a label with an empty value; the key is
    // still sanitized into the grammar (keys reuse the name rule minus
    // ':', which the sanitizer permits but Prometheus tolerates).
    const std::string_view key =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view()
                                     : pair.substr(eq + 1);
    if (!inner.empty()) inner += ',';
    inner += prometheus_sanitize_name(key);
    inner += "=\"";
    inner += prometheus_escape_label_value(value);
    inner += '"';
  }
  if (!inner.empty()) *labels = "{" + inner + "}";
}

std::string render_prometheus(const MetricsRegistry& registry,
                              const std::vector<PrometheusGauge>& gauges) {
  const Json doc = registry.to_json();
  std::string out;
  std::string last_family;
  for (const auto& [name, inst] : doc.members()) {
    Sample s;
    prometheus_split_name(name, &s.family, &s.labels);
    const std::string& type = inst.at("type").as_string();
    if (type == "counter") {
      const std::string family = s.family + "_total";
      append_type_line(out, &last_family, family, "counter");
      out += family;
      out += s.labels;
      out += ' ';
      out += value_text(inst.at("value"));
      out += '\n';
    } else {
      append_type_line(out, &last_family, s.family, "histogram");
      const Json& bounds = inst.at("bounds");
      const Json& buckets = inst.at("buckets");
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        const std::uint64_t tally = u64_of(buckets.at(i));
        cumulative = cumulative > ~0ull - tally ? ~0ull : cumulative + tally;
        out += s.family;
        out += "_bucket";
        out += with_label(s.labels,
                          "le=\"" + value_text(bounds.at(i)) + "\"");
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      }
      // The +Inf bucket is the total observation count by definition.
      out += s.family;
      out += "_bucket";
      out += with_label(s.labels, "le=\"+Inf\"");
      out += ' ';
      out += value_text(inst.at("count"));
      out += '\n';
      out += s.family;
      out += "_sum";
      out += s.labels;
      out += ' ';
      out += value_text(inst.at("sum"));
      out += '\n';
      out += s.family;
      out += "_count";
      out += s.labels;
      out += ' ';
      out += value_text(inst.at("count"));
      out += '\n';
    }
  }
  for (const PrometheusGauge& gauge : gauges) {
    Sample s;
    prometheus_split_name(gauge.name, &s.family, &s.labels);
    append_type_line(out, &last_family, s.family, "gauge");
    out += s.family;
    out += s.labels;
    out += ' ';
    out += double_text(gauge.value);
    out += '\n';
  }
  return out;
}

}  // namespace t1000::obs
