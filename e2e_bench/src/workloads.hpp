// The four workloads and the metric names they report.
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run. The same names and
/// units are listed in BENCHMARK.json.
inline constexpr MetricSpec kEndToEnd[] = {
    {"latency_t1_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

/// Per-layer metrics, printed by every traced run. A workload that never
/// calls a layer reports 0 for that layer's metrics.
inline constexpr MetricSpec kPerLayer[] = {
    {"darshan.scan_ms", "ms"},
    {"darshan.read_parse_us.p50", "us"},
    {"darshan.read_parse_us.p90", "us"},
    {"ingest.wall_s.t1", "s"},
    {"ingest.wall_s.t4", "s"},
    {"ingest.cpu_util.t4", "ratio"},
    {"ingest.overhead_share.t1", "ratio"},
    {"ingest.loaded", "count"},
    {"ingest.failed", "count"},
    {"core.fold_us.p50", "us"},
    {"core.preprocess_ms", "ms"},
    {"core.analyze_ms.t1", "ms"},
    {"core.analyze_ms.t4", "ms"},
    {"core.analyze_trace_us.p50", "us"},
    {"core.analyze_trace_us.p90", "us"},
    {"core.retained_share", "ratio"},
    {"parallel.speedup.t4", "ratio"},
    {"parallel.throughput_t1", "1/s"},
    {"parallel.throughput_t4", "1/s"},
    {"report.summary_ms", "ms"},
    {"dist.submit_path_ms", "ms"},
    {"dist.transport_ms", "ms"},
    {"dist.cache_hit_share", "ratio"},
    {"util.write_atomic_ms", "ms"},
    {"obs.healthz_p90_ms", "ms"},
    {"obs.trace_overhead_share", "ratio"},
    {"trace.coverage", "ratio"},
    {"self_ms.darshan", "ms"},
    {"self_ms.ingest", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.report", "ms"},
    {"self_ms.dist", "ms"},
    {"self_ms.util", "ms"},
    {"self_ms.obs", "ms"},
    {"self_ms.bench", "ms"},
};

/// Serial decomposition passes a traced run makes at most: enough per-file
/// and per-trace spans for stable percentiles while keeping the span file
/// small.
inline constexpr std::size_t kMaxDecomposedPasses = 3;

/// Metric values by name; the caller emits the set the run mode asks for.
using Values = std::map<std::string, double>;

/// Each workload sets up its inputs, measures for `options.seconds`, checks
/// every output into `result`, and fills `values`. An untraced run fills the
/// end-to-end metrics, a traced run the per-layer ones (writing its spans to
/// options.spans_path). Returns false when set-up failed and no result can
/// be reported.
[[nodiscard]] bool run_batch(const Options& options, bool text, Result& result,
                             Values& values);
[[nodiscard]] bool run_analyze(const Options& options, Result& result,
                               Values& values);
[[nodiscard]] bool run_serve(const Options& options, Result& result,
                             Values& values);

/// Per-layer self time per operation, `self_ms.<layer>`, over the traced
/// operations whose root span is `root`; only `layer`'s when it is given.
void fill_self_times(const Tracer& tracer, const std::string& root,
                     Values& values, const std::string& layer = {});

}  // namespace e2e
