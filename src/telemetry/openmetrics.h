/**
 * @file
 * OpenMetrics / Prometheus text exporter for the metrics registry.
 *
 * Renders every counter, gauge, and histogram of the global registry in
 * the OpenMetrics text format so runs can be scraped (or their dumps
 * ingested) by standard tooling. Surfaced via `xtalkc --metrics-prom`.
 *
 * Name mapping (see docs/OBSERVABILITY.md): dotted metric names become
 * `xtalk_`-prefixed underscore families — every character outside
 * [a-zA-Z0-9_] turns into `_`, so `sched.xtalk.solve_ms` exports as
 * `xtalk_sched_xtalk_solve_ms`. Counters gain the conventional
 * `_total` suffix; histograms export the `_bucket{le="…"}` /
 * `_sum` / `_count` series with cumulative bucket counts and an
 * explicit `le="+Inf"` bucket. Registry labels (free-form key/value
 * strings like `tool.device`) export as one `xtalk_run_info` gauge
 * with all labels attached.
 *
 * The exposition ends with `# EOF` per the OpenMetrics spec; the
 * bundled ValidateOpenMetrics() is the same minimal format check the
 * CI smoke runs (tools/check_openmetrics.py is its scripted twin).
 */
#ifndef XTALK_TELEMETRY_OPENMETRICS_H
#define XTALK_TELEMETRY_OPENMETRICS_H

#include <string>

namespace xtalk::telemetry {

/** Map a dotted metric name to its exported family name
 *  (`sched.xtalk.solve_ms` -> `xtalk_sched_xtalk_solve_ms`). */
std::string OpenMetricsName(const std::string& dotted);

/** Render the whole registry in OpenMetrics text format. */
std::string OpenMetricsText();

/** Write OpenMetricsText() to @p path. False (with @p error) on failure. */
bool WriteOpenMetrics(const std::string& path, std::string* error = nullptr);

/**
 * Minimal format check: every line is a well-formed comment
 * (`# HELP|TYPE|EOF …`) or sample (`name{labels} value`), histogram
 * families carry `_sum`/`_count` and cumulative, `+Inf`-terminated
 * buckets, and the exposition ends with `# EOF`. On failure @p error
 * (if non-null) names the offending line.
 */
bool ValidateOpenMetrics(const std::string& text,
                         std::string* error = nullptr);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_OPENMETRICS_H
