// analyze_unique: an in-memory population in which most valid traces are
// their own application, categorized with core::analyze_population(span) at
// 1 and 4 threads. Almost all the work is in core and cluster.
#include <cstdio>
#include <span>

#include "checks.hpp"
#include "corpus.hpp"
#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/population.hpp"
#include "workloads.hpp"

namespace e2e {

namespace core = mosaic::core;
namespace parallel = mosaic::parallel;
namespace sim = mosaic::sim;
using mosaic::trace::Trace;

namespace {

std::size_t population_size(const Options& options) {
  return options.scale == Scale::kTiny ? 300 : 40000;
}

/// Scales every archetype's mean rerun count down to the generator's floor
/// of one run, so that dedup keeps most valid traces and analysis, not the
/// funnel, is the dominant cost.
constexpr double kRunsScale = 0.05;

}  // namespace

bool run_analyze(const Options& options, Result& result, Values& values) {
  const std::size_t threads[] = {1, kThreads};

  // Set-up: generate the population (several times, for a steady median),
  // then the reference the timed passes must reproduce. One generator
  // thread, because several interleave their allocations differently on
  // every run, which left the heap holding 80 to 115 MiB after set-up and
  // moved peak_rss_mb by as much.
  std::vector<Trace> traces;
  FunnelPlan plan;
  std::vector<double> generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = now_s();
    parallel::ThreadPool generator_pool(1);
    traces.clear();
    traces.shrink_to_fit();
    std::vector<sim::LabeledTrace> population = stratified_population(
        population_size(options), options.seed, kBlueWatersCorruption,
        kRunsScale, generator_pool);
    plan = FunnelPlan{population.size(), 0};
    // Copied, not moved, so that the traces sit in memory in input order as
    // a sequential reader would leave them, rather than interleaved by
    // whichever generator thread built each: that interleaving changed from
    // run to run and moved analysis time with it.
    traces.reserve(population.size());
    for (const sim::LabeledTrace& labeled : population) {
      plan.planted_corrupt += labeled.corrupted ? 1 : 0;
      traces.push_back(labeled.trace);
    }
    generate_s.push_back(now_s() - start);
  }
  const double setup_start = now_s();
  const std::span<const Trace> input(traces);
  // The serial one-shot analysis is the reference, and the warm-up pass
  // that ends set-up; passes at both thread counts must reproduce it byte
  // for byte. They only check, so they stay out of setup_s: a pass on all
  // the machine's cores would bring the host's load into it.
  const core::BatchResult serial = core::analyze_population(input);
  const std::string reference = summary_json(serial);
  result.check(check_funnel(serial, plan).empty(),
               "reference funnel: " + check_funnel(serial, plan));
  const double setup_s = median(generate_s) + (now_s() - setup_start);
  for (const std::size_t count : threads) {
    parallel::ThreadPool pool(count);
    const std::string warm =
        summary_json(core::analyze_population(input, {}, &pool));
    result.check(check_same_bytes(warm, reference).empty(),
                 "warm-up pass: " + check_same_bytes(warm, reference));
  }
  result.note("setup_generate_s", median(generate_s), "s");
  result.note("setup_prepare_s", setup_s - median(generate_s), "s");
  // The generator's copy of the population is gone; from here on the peak
  // covers the timed passes over `traces` alone.
  reset_peak_rss();
  result.note("rss_after_setup_mb", current_rss_mib(), "MiB");

  Tracer tracer;
  // Only the funnel of the last pass is kept: holding its whole result
  // while the next pass builds one would add to the peak resident set.
  core::PreprocessStats last;
  // Process CPU time of each untraced 1-thread pass: latency_t1_ms, timed
  // in CPU time for the reason given in batch.cpp.
  std::vector<double> cpu_t1;
  // One timed pass on `arm`: 0 and 1 are untraced at 1 and 4 threads, 2 and
  // 3 the same with spans.
  const auto timed_pass = [&](std::size_t arm) {
    const bool traced = arm >= 2;
    const bool t1 = arm % 2 == 0;
    Tracer* t = traced ? &tracer : nullptr;
    const std::uint64_t op = traced ? tracer.new_op() : 0;
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    core::BatchResult batch;
    // A fresh pool per pass, as each `mosaic` invocation makes one: where the
    // scheduler places its threads changes run time by tens of percent, and
    // re-drawing the placement every pass lets the median average over it.
    parallel::ThreadPool pool(threads[arm % 2]);
    if (traced) {
      // analyze_population(span) is exactly these two calls; the traced pass
      // makes them separately to time each.
      const Tracer::Scope root(t, t1 ? "bench.pass_t1" : "bench.pass_t4", op);
      core::PreprocessResult pre;
      {
        const Tracer::Scope span(t, "core.preprocess", op);
        pre = core::preprocess(input);
      }
      const Tracer::Scope span(t, "core.analyze_preprocessed", op);
      batch = core::analyze_preprocessed(std::move(pre), {}, &pool);
    } else {
      batch = core::analyze_population(input, {}, &pool);
    }
    const double elapsed = now_s() - start;
    if (arm == 0) cpu_t1.push_back(process_cpu_s() - cpu_start);
    const std::string summary = summary_json(batch);
    result.check(check_same_bytes(summary, reference).empty(),
                 "pass summary: " + check_same_bytes(summary, reference));
    result.check(check_funnel(batch, plan).empty(),
                 "pass funnel: " + check_funnel(batch, plan));
    last = batch.preprocess;
    return elapsed;
  };

  const double inputs = static_cast<double>(plan.inputs);
  if (!options.trace) {
    const auto walls = timed_rounds(2, options.seconds, 5, timed_pass);
    const double t1 = median(walls[0]);
    const double t4 = median(walls[1]);
    values["latency_t1_ms"] = median(cpu_t1) * 1e3;
    values["peak_rss_mb"] = peak_rss_mib();
    values["setup_s"] = setup_s;
    const double analyzed = static_cast<double>(last.retained);
    result.note("traces_per_s_t1", inputs / t1, "traces/s");
    result.note("traces_per_s_t4", inputs / t4, "traces/s");
    result.note("pass_wall_p50_ms_t1", t1 * 1e3, "ms");
    result.note("pass_wall_p50_ms_t4", t4 * 1e3, "ms");
    result.note("analyzed_traces_per_s_t1", analyzed / t1, "traces/s");
    result.note("analyzed_traces_per_s_t4", analyzed / t4, "traces/s");
    result.note("passes_t1", static_cast<double>(walls[0].size()), "count");
    result.note("passes_t4", static_cast<double>(walls[1].size()), "count");
    result.note("population_traces", inputs, "count");
    result.note("retained_traces", analyzed, "count");
    return true;
  }

  // Untraced and traced passes interleave, so drift of the machine cancels
  // out of the tracing overhead.
  const auto walls = timed_rounds(4, options.seconds * 0.7, 3, timed_pass);
  const std::vector<std::vector<double>> untraced(walls.begin(),
                                                  walls.begin() + 2);
  const std::vector<std::vector<double>> traced(walls.begin() + 2,
                                                walls.end());
  // Serial decomposition: each retained trace through Analyzer::analyze
  // under its own span (this includes the cluster kernels).
  const core::PreprocessResult pre = core::preprocess(input);
  const core::Analyzer analyzer;
  core::AnalyzerWorkspace workspace;
  const double decompose_until = now_s() + options.seconds * 0.3;
  std::size_t decompositions = 0;
  do {
    const std::uint64_t op = tracer.new_op();
    const Tracer::Scope root(&tracer, "bench.decompose", op);
    core::BatchResult batch;
    batch.preprocess = pre.stats;
    batch.runs_per_app = pre.runs_per_app;
    for (const Trace& trace : pre.retained) {
      const Tracer::Scope span(&tracer, "core.analyze_trace", op);
      batch.results.push_back(analyzer.analyze(trace, workspace));
    }
    result.check(check_same_bytes(summary_json(batch), reference).empty(),
                 "decomposed pass summary");
    ++decompositions;
  } while (now_s() < decompose_until &&
           decompositions < kMaxDecomposedPasses);

  const std::vector<Span> spans = tracer.spans();
  auto analyze_us = durations_ms(spans, "core.analyze_trace");
  for (double& v : analyze_us) v *= 1e3;
  values["core.preprocess_ms"] =
      median(durations_ms(spans, "core.preprocess", "bench.pass_t1"));
  values["core.analyze_ms.t1"] = median(
      durations_ms(spans, "core.analyze_preprocessed", "bench.pass_t1"));
  values["core.analyze_ms.t4"] = median(
      durations_ms(spans, "core.analyze_preprocessed", "bench.pass_t4"));
  values["core.analyze_trace_us.p50"] = quantile(analyze_us, 0.5);
  values["core.analyze_trace_us.p90"] = quantile(analyze_us, 0.9);
  values["core.retained_share"] =
      static_cast<double>(last.retained) /
      static_cast<double>(std::max<std::size_t>(1, last.valid));
  values["parallel.speedup.t4"] = median(untraced[0]) / median(untraced[1]);
  values["parallel.throughput_t1"] = inputs / median(untraced[0]);
  values["parallel.throughput_t4"] = inputs / median(untraced[1]);
  values["obs.trace_overhead_share"] = overhead_share(untraced, traced);
  values["trace.coverage"] = coverage(spans, "bench.pass_t1");
  fill_self_times(tracer, "bench.pass_t1", values);
  result.note("decomposed_passes", static_cast<double>(decompositions),
              "count");
  result.note("coverage_t4", coverage(spans, "bench.pass_t4"), "ratio");
  result.note("coverage_decomposed", coverage(spans, "bench.decompose"),
              "ratio");
  return tracer.write(options.spans_path);
}

}  // namespace e2e
