// batch_mbt and batch_text: an on-disk corpus driven the way `mosaic batch`
// drives it (scan -> ingest -> analyze -> summary) at 1 and 4 threads.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>

#include "checks.hpp"
#include "corpus.hpp"
#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "darshan/io.hpp"
#include "ingest/ingest.hpp"
#include "parallel/thread_pool.hpp"
#include "report/aggregate.hpp"
#include "sim/population.hpp"
#include "workloads.hpp"

namespace e2e {

namespace core = mosaic::core;
namespace darshan = mosaic::darshan;
namespace ingest = mosaic::ingest;
namespace parallel = mosaic::parallel;
namespace report = mosaic::report;
namespace sim = mosaic::sim;

namespace {

/// Files in the corpus. The text corpus is smaller because parsing text
/// costs several times more per file; both sizes give each timed arm
/// enough passes for a steady median.
std::size_t corpus_files(const Options& options, bool text) {
  if (options.scale == Scale::kTiny) return 120;
  return text ? 1500 : 6000;
}

/// Set-up, run in a forked child: generate the population, write it in the
/// format `mosaic generate` writes, and record what was planted. For the
/// .mbt corpus the plan also holds the summary of the in-memory analysis of
/// the same population; the text format rounds values, so the text corpus
/// has no such reference and skips that analysis.
bool write_corpus(const Options& options, bool text, const std::string& dir,
                  const std::string& plan_path) {
  parallel::ThreadPool pool(kThreads);
  const std::vector<sim::LabeledTrace> population = stratified_population(
      corpus_files(options, text), options.seed, kBlueWatersCorruption, 1.0,
      pool);

  const bool ok = !write_traces(population, dir, text, pool).empty();

  std::size_t planted = 0;
  for (const auto& labeled : population) planted += labeled.corrupted ? 1 : 0;
  std::ofstream plan(plan_path, std::ios::binary);
  plan << population.size() << ' ' << planted << '\n';
  if (!text) {
    std::vector<mosaic::trace::Trace> traces;
    traces.reserve(population.size());
    for (const auto& labeled : population) traces.push_back(labeled.trace);
    plan << summary_json(core::analyze_population(
        std::span<const mosaic::trace::Trace>(traces), {}, &pool));
  }
  return ok && static_cast<bool>(plan.flush());
}

struct Pass {
  core::BatchResult batch;
  ingest::IngestStats stats;
  std::string summary;
};

/// One `mosaic batch` run over the corpus. Spans, when traced, wrap each
/// call into a layer.
std::optional<Pass> batch_pass(const std::string& dir,
                               parallel::ThreadPool& pool, Tracer* tracer,
                               std::uint64_t op, double* ingest_cpu_s) {
  std::vector<std::string> paths;
  {
    const Tracer::Scope span(tracer, "darshan.scan_trace_dir", op);
    auto scanned = darshan::scan_trace_dir(dir);
    if (!scanned.has_value()) return std::nullopt;
    paths = std::move(*scanned);
  }
  Pass pass;
  std::optional<core::PreprocessResult> pre;
  {
    const double cpu0 = ingest_cpu_s != nullptr ? process_cpu_s() : 0.0;
    const Tracer::Scope span(tracer, "ingest.ingest_paths", op);
    auto ingested = ingest::ingest_paths(paths, ingest::IngestOptions{}, pool);
    if (!ingested.has_value()) return std::nullopt;
    pass.stats = ingested->stats;
    pre = std::move(ingested->pre);
    if (ingest_cpu_s != nullptr) *ingest_cpu_s += process_cpu_s() - cpu0;
  }
  {
    const Tracer::Scope span(tracer, "core.analyze_preprocessed", op);
    pass.batch = core::analyze_preprocessed(std::move(*pre), {}, &pool);
  }
  {
    // The summary `mosaic batch --json` writes plus the category table it
    // prints.
    const Tracer::Scope span(tracer, "report.summary", op);
    pass.summary = summary_json(pass.batch);
    const report::CategoryDistribution distribution =
        report::aggregate_categories(pass.batch);
    if (distribution.trace_count != pass.batch.results.size()) {
      return std::nullopt;
    }
  }
  return pass;
}

/// The serial pass the traced run uses to split ingest into its per-file
/// parts: each file is read and parsed, then folded, then each retained
/// trace analyzed, each under its own span. Returns the batch result so it
/// can be checked like any other pass.
core::BatchResult decomposed_pass(const std::string& dir, Tracer& tracer,
                                  std::uint64_t op) {
  const Tracer::Scope root(&tracer, "bench.decompose", op);
  std::vector<std::string> paths;
  {
    const Tracer::Scope span(&tracer, "darshan.scan_trace_dir", op);
    paths = darshan::scan_trace_dir(dir).value_or(std::vector<std::string>{});
  }
  core::StreamingPreprocessor folder;
  for (const std::string& path : paths) {
    std::optional<mosaic::util::Expected<mosaic::trace::Trace>> loaded;
    {
      const Tracer::Scope span(&tracer, "darshan.read_trace_file", op);
      loaded.emplace(darshan::read_trace_file(path));
    }
    if (!loaded->has_value()) {
      const Tracer::Scope span(&tracer, "core.add_load_failure", op);
      folder.add_load_failure(loaded->error().code);
      continue;
    }
    const Tracer::Scope span(&tracer, "core.add_trace", op);
    (void)folder.add_trace(std::move(**loaded), path);
  }
  core::PreprocessResult pre;
  {
    const Tracer::Scope span(&tracer, "core.finish", op);
    pre = std::move(folder).finish();
  }
  core::BatchResult batch;
  batch.preprocess = pre.stats;
  batch.runs_per_app = std::move(pre.runs_per_app);
  const core::Analyzer analyzer;
  core::AnalyzerWorkspace workspace;
  for (const auto& trace : pre.retained) {
    const Tracer::Scope span(&tracer, "core.analyze_trace", op);
    batch.results.push_back(analyzer.analyze(trace, workspace));
  }
  return batch;
}

double directory_bytes(const std::vector<std::string>& paths) {
  double bytes = 0.0;
  for (const std::string& path : paths) {
    std::error_code ec;
    bytes += static_cast<double>(std::filesystem::file_size(path, ec));
  }
  return bytes;
}

}  // namespace

bool run_batch(const Options& options, bool text, Result& result,
               Values& values) {
  const std::string dir = options.work_dir + "/corpus";
  const std::string plan_path = options.work_dir + "/plan.txt";
  const double child_setup_s = repeated_child_setup(
      dir, [&] { return write_corpus(options, text, dir, plan_path); },
      kSetupRepeats);
  if (child_setup_s < 0.0) {
    std::fprintf(stderr, "corpus set-up failed\n");
    return false;
  }

  const double setup_start = now_s();
  FunnelPlan plan;
  std::string in_memory_summary;
  {
    std::ifstream in(plan_path, std::ios::binary);
    in >> plan.inputs >> plan.planted_corrupt;
    in.ignore(1);
    in_memory_summary.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto paths = darshan::scan_trace_dir(dir);
  if (!paths.has_value() || paths->size() != plan.inputs) {
    std::fprintf(stderr, "corpus scan failed\n");
    return false;
  }
  const double corpus_bytes = directory_bytes(*paths);
  const double files = static_cast<double>(plan.inputs);

  const std::size_t threads[] = {1, kThreads};

  // Warm-up: one pass per thread count reads the corpus into the page cache
  // and builds the reference both must reproduce. The reference must also
  // equal the one-shot in-memory analysis of the population the child
  // generated, and its funnel must match what was planted. Set-up ends with
  // the 1-thread pass; the 4-thread one only checks, and a pass on all the
  // machine's cores would bring the host's load into setup_s.
  std::string reference;
  double setup_s = 0.0;
  for (const std::size_t count : threads) {
    parallel::ThreadPool pool(count);
    auto pass = batch_pass(dir, pool, nullptr, 0, nullptr);
    if (!pass.has_value()) {
      std::fprintf(stderr, "warm-up pass failed\n");
      return false;
    }
    if (reference.empty()) {
      setup_s = child_setup_s + (now_s() - setup_start);
      reference = pass->summary;
      result.check(check_funnel(pass->batch, plan).empty(),
                   "warm-up funnel: " + check_funnel(pass->batch, plan));
      // The text format rounds values the binary format keeps exactly, so
      // only the .mbt corpus can be held to the in-memory analysis.
      if (!text) {
        result.check(check_same_bytes(reference, in_memory_summary).empty(),
                     "warm-up vs in-memory analysis: " +
                         check_same_bytes(reference, in_memory_summary));
      }
    } else {
      result.check(check_same_bytes(pass->summary, reference).empty(),
                   "warm-up at 4 threads vs 1 thread: " +
                       check_same_bytes(pass->summary, reference));
    }
  }
  result.note("setup_generate_s", child_setup_s, "s");
  result.note("setup_prepare_s", setup_s - child_setup_s, "s");
  // From here on the peak covers the timed passes alone.
  reset_peak_rss();
  result.note("rss_after_setup_mb", current_rss_mib(), "MiB");

  // One timed pass on `arm`, checked after timing: 0 and 1 are untraced at 1
  // and 4 threads, 2 and 3 the same with spans.
  Tracer tracer;
  double ingest_cpu_t4 = 0.0;
  // Only the funnel of the last pass is kept: holding its whole result
  // while the next pass builds one would add to the peak resident set.
  core::PreprocessStats last;
  ingest::IngestStats last_stats;
  // Process CPU time of each untraced 1-thread pass: latency_t1_ms. On an
  // idle machine it equals the pass's wall time; unlike wall time it leaves
  // out what the host steals from a shared VM, which moved the wall-time
  // medians of whole runs by a fifth or more (README.md).
  std::vector<double> cpu_t1;
  const auto timed_pass = [&](std::size_t arm) {
    const bool traced = arm >= 2;
    const bool t1 = arm % 2 == 0;
    Tracer* t = traced ? &tracer : nullptr;
    const std::uint64_t op = traced ? tracer.new_op() : 0;
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    std::optional<Pass> pass;
    {
      const Tracer::Scope root(t, t1 ? "bench.pass_t1" : "bench.pass_t4", op);
      // A fresh pool per pass, as `mosaic batch` makes one per run: where the
      // scheduler places its threads changes run time by tens of percent,
      // and re-drawing the placement every pass lets the median average
      // over it.
      parallel::ThreadPool pool(threads[arm % 2]);
      pass = batch_pass(dir, pool, t, op,
                        traced && !t1 ? &ingest_cpu_t4 : nullptr);
    }
    const double elapsed = now_s() - start;
    if (arm == 0) cpu_t1.push_back(process_cpu_s() - cpu_start);
    if (!result.check(pass.has_value(), "batch pass failed")) return elapsed;
    result.check(check_same_bytes(pass->summary, reference).empty(),
                 "pass summary: " +
                     check_same_bytes(pass->summary, reference));
    result.check(check_funnel(pass->batch, plan).empty(),
                 "pass funnel: " + check_funnel(pass->batch, plan));
    last = pass->batch.preprocess;
    last_stats = pass->stats;
    return elapsed;
  };

  const std::string format = text ? "text" : "mbt";
  if (!options.trace) {
    const auto walls = timed_rounds(2, options.seconds, 3, timed_pass);
    const double t1 = median(walls[0]);
    const double t4 = median(walls[1]);
    values["latency_t1_ms"] = median(cpu_t1) * 1e3;
    values["peak_rss_mb"] = peak_rss_mib();
    values["setup_s"] = setup_s;
    const double mb = corpus_bytes / 1e6;
    const double analyzed = static_cast<double>(last.retained);
    result.note("files_per_s_t1", files / t1, "files/s");
    result.note("files_per_s_t4", files / t4, "files/s");
    result.note("pass_wall_p50_ms_t1", t1 * 1e3, "ms");
    result.note("pass_wall_p50_ms_t4", t4 * 1e3, "ms");
    result.note("input_mb_per_s_t1", mb / t1, "MB/s");
    result.note("input_mb_per_s_t4", mb / t4, "MB/s");
    result.note("analyzed_traces_per_s_t1", analyzed / t1, "traces/s");
    result.note("analyzed_traces_per_s_t4", analyzed / t4, "traces/s");
    result.note("passes_t1", static_cast<double>(walls[0].size()), "count");
    result.note("passes_t4", static_cast<double>(walls[1].size()), "count");
    result.note("corpus_files", files, "count");
    result.note("corpus_mb_" + format, mb, "MB");
    return true;
  }

  // Traced run: untraced passes interleaved with the same passes with spans,
  // so drift of the machine cancels out of the tracing overhead; then the
  // serial decomposition.
  const auto walls = timed_rounds(4, options.seconds * 0.7, 2, timed_pass);
  const std::vector<std::vector<double>> untraced(walls.begin(),
                                                  walls.begin() + 2);
  const std::vector<std::vector<double>> traced(walls.begin() + 2,
                                                walls.end());
  std::size_t decompositions = 0;
  const double decompose_until = now_s() + options.seconds * 0.3;
  do {
    const core::BatchResult batch =
        decomposed_pass(dir, tracer, tracer.new_op());
    result.check(check_same_bytes(summary_json(batch), reference).empty(),
                 "decomposed pass summary: " +
                     check_same_bytes(summary_json(batch), reference));
    ++decompositions;
  } while (now_s() < decompose_until &&
           decompositions < kMaxDecomposedPasses);

  const std::vector<Span> spans = tracer.spans();
  const auto per_pass = [&](const std::string& name) {
    return sum(durations_ms(spans, name, "bench.decompose")) /
           static_cast<double>(decompositions);
  };
  const double ingest_t1_s =
      median(durations_ms(spans, "ingest.ingest_paths", "bench.pass_t1")) *
      1e-3;
  const auto ingest_t4 =
      durations_ms(spans, "ingest.ingest_paths", "bench.pass_t4");
  auto read_parse_us = durations_ms(spans, "darshan.read_trace_file");
  for (double& v : read_parse_us) v *= 1e3;
  auto fold_us = durations_ms(spans, "core.add_trace");
  for (double& v : fold_us) v *= 1e3;
  auto analyze_us = durations_ms(spans, "core.analyze_trace");
  for (double& v : analyze_us) v *= 1e3;

  values["darshan.scan_ms"] =
      median(durations_ms(spans, "darshan.scan_trace_dir", "bench.pass_t1"));
  values["darshan.read_parse_us.p50"] = quantile(read_parse_us, 0.5);
  values["darshan.read_parse_us.p90"] = quantile(read_parse_us, 0.9);
  values["ingest.wall_s.t1"] = ingest_t1_s;
  values["ingest.wall_s.t4"] = median(ingest_t4) * 1e-3;
  values["ingest.cpu_util.t4"] =
      ingest_cpu_t4 /
      (sum(ingest_t4) * 1e-3 * static_cast<double>(kThreads));
  values["ingest.overhead_share.t1"] =
      1.0 - (per_pass("darshan.read_trace_file") + per_pass("core.add_trace") +
             per_pass("core.add_load_failure")) *
                1e-3 / ingest_t1_s;
  values["ingest.loaded"] = static_cast<double>(last_stats.loaded);
  values["ingest.failed"] = static_cast<double>(last_stats.failed);
  values["core.fold_us.p50"] = quantile(fold_us, 0.5);
  values["core.preprocess_ms"] = per_pass("core.add_trace") +
                                 per_pass("core.add_load_failure") +
                                 per_pass("core.finish");
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
  values["parallel.throughput_t1"] = files / median(untraced[0]);
  values["parallel.throughput_t4"] = files / median(untraced[1]);
  values["report.summary_ms"] =
      median(durations_ms(spans, "report.summary", "bench.pass_t1"));
  values["obs.trace_overhead_share"] = overhead_share(untraced, traced);
  values["trace.coverage"] = coverage(spans, "bench.pass_t1");
  fill_self_times(tracer, "bench.pass_t1", values);
  result.note("decomposed_passes", static_cast<double>(decompositions),
              "count");
  result.note("traced_passes_t1", static_cast<double>(traced[0].size()),
              "count");
  result.note("coverage_t4", coverage(spans, "bench.pass_t4"), "ratio");
  result.note("coverage_decomposed", coverage(spans, "bench.decompose"),
              "ratio");
  return tracer.write(options.spans_path);
}

}  // namespace e2e
