// Prometheus text exposition (text/plain; version=0.0.4) of a
// MetricsRegistry.
//
// The registry's JSON dump stays the canonical machine-readable form (the
// serve API's existing consumers parse it); this renderer is a second,
// read-only view over the same instruments for Prometheus scrapers:
//
//  * counters   -> `<name>_total <value>` under `# TYPE ... counter`
//  * histograms -> cumulative `<name>_bucket{le="..."}` series (the
//                  registry stores per-bucket tallies; exposition
//                  accumulates them), a closing `le="+Inf"` bucket equal to
//                  `<name>_count`, plus `<name>_sum`
//
// Those are the registry's two instrument kinds; the only other `# TYPE`
// the document carries is `gauge`, for the caller's point-in-time readings.
//
// Label convention: a registry instrument named
//   `family|key=value|key2=value2`
// renders as the `family` metric with that label set — e.g. the serve
// layer's per-route histograms register as
// `serve.route_ms|route=GET /v1/jobs`. Everything before the first '|' is
// the family; each remaining '|'-separated segment is one `key=value`
// pair (split on the first '='). Family and key are sanitized into the
// Prometheus grammar ([a-zA-Z_:] / [a-zA-Z_]; every other byte becomes
// '_'); values are escaped per the text format (backslash, double quote,
// newline).
//
// Values render with the exact same digits as the JSON path: instrument
// tallies are unsigned 64-bit and print as full decimal even above
// INT64_MAX (where the JSON dump switches to decimal strings) — pinned by
// the parity test in tests/obs/prometheus_test.cpp.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace t1000::obs {

// Point-in-time gauge appended to the exposition (the serve layer's cache
// disk-usage/budget readings, which live outside the registry).
struct PrometheusGauge {
  std::string name;  // same `family|key=value` convention as the registry
  double value = 0.0;
};

// Renders the whole registry (instruments sorted by name, as in to_json)
// followed by `gauges`, as one exposition document.
std::string render_prometheus(const MetricsRegistry& registry,
                              const std::vector<PrometheusGauge>& gauges = {});

// Exposed for tests: the name/label mangling pieces.
std::string prometheus_sanitize_name(std::string_view name);
std::string prometheus_escape_label_value(std::string_view value);
// Splits `family|k=v|...` into the sanitized family plus a rendered label
// block (`{k="v",...}` or empty).
void prometheus_split_name(std::string_view name, std::string* family,
                           std::string* labels);

}  // namespace t1000::obs
