// Byte-identity guard for the hot-path performance work (DESIGN.md §12).
//
// The zero-alloc analyzer workspaces, the flat Mean-Shift grid, and the FFT
// plan cache are all required to change *where bytes live*, never *what the
// pipeline computes*. These tests re-run the exact populations behind the
// committed goldens in tests/golden/ (captured from the pre-optimization
// pipeline via tools/dump_ab_golden) and compare the serialized batch output
// byte for byte — once per detector backend, and across worker counts, since
// each pool worker owns a separate workspace.
//
// If a test here fails after an *intentional* behavior change (new threshold
// default, new category), regenerate the goldens:
//
//   ./build/tools/dump_ab_golden tests/golden
#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json_output.hpp"
#include "sim/population.hpp"
#include "util/simd.hpp"

using namespace mosaic;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Mirrors tools/dump_ab_golden.cpp exactly: same population, same seed,
/// same serialization. Any drift between the two invalidates the guard.
std::string serialize_population(const core::Thresholds& thresholds,
                                 std::size_t workers) {
  sim::PopulationConfig config;
  config.target_traces = 2000;
  config.seed = 20240711;
  sim::Population population = sim::generate_population(config);
  std::vector<trace::Trace> traces;
  traces.reserve(population.traces.size());
  for (sim::LabeledTrace& labeled : population.traces) {
    traces.push_back(std::move(labeled.trace));
  }
  parallel::ThreadPool pool(workers);
  const core::BatchResult batch =
      core::analyze_population(std::move(traces), thresholds, &pool);
  return json::serialize(
             report::batch_to_json(batch, /*include_traces=*/true)) +
         "\n";
}

TEST(GoldenAb, MeanShiftBackendMatchesCommittedGolden) {
  const std::string golden = read_file(
      std::string(MOSAIC_SOURCE_DIR) +
      "/tests/golden/ab_categorization_meanshift.json");
  ASSERT_FALSE(golden.empty());
  const core::Thresholds thresholds;  // defaults: Mean-Shift backend
  EXPECT_EQ(serialize_population(thresholds, 2), golden);
}

TEST(GoldenAb, FrequencyBackendMatchesCommittedGolden) {
  const std::string golden = read_file(
      std::string(MOSAIC_SOURCE_DIR) +
      "/tests/golden/ab_categorization_frequency.json");
  ASSERT_FALSE(golden.empty());
  core::Thresholds thresholds;
  thresholds.periodicity_backend = core::PeriodicityBackend::kFrequency;
  EXPECT_EQ(serialize_population(thresholds, 2), golden);
}

TEST(GoldenAb, ForcedScalarMatchesActiveSimdLevel) {
  // The AVX2 kernels (DESIGN.md §18) must be bit-identical to their scalar
  // references through the whole pipeline, not just in kernel unit tests:
  // the serialized batch output of a forced-scalar run has to match the
  // dispatched run byte for byte, on both detector backends. On a machine
  // without AVX2 both runs take the scalar path and the test degenerates to
  // determinism — still worth holding.
  for (const auto backend : {core::PeriodicityBackend::kMeanShift,
                             core::PeriodicityBackend::kFrequency}) {
    core::Thresholds thresholds;
    thresholds.periodicity_backend = backend;
    util::simd::set_level_for_testing(util::simd::Level::kScalar);
    const std::string scalar = serialize_population(thresholds, 2);
    util::simd::clear_level_for_testing();
    const std::string dispatched = serialize_population(thresholds, 2);
    ASSERT_FALSE(scalar.empty());
    EXPECT_EQ(scalar, dispatched)
        << "backend=" << static_cast<int>(backend) << " active simd level: "
        << util::simd::level_name(util::simd::active_level());
  }
}

TEST(GoldenAb, NonConsumingOverloadMatchesConsumingByteForByte) {
  // bench/perf_pipeline measures the non-consuming analyze_population
  // overload (no per-pass corpus copy), while the committed goldens pin the
  // consuming one — so the two must serialize identically or the perf
  // numbers describe a different pipeline than the one the goldens guard.
  sim::PopulationConfig config;
  config.target_traces = 2000;
  config.seed = 20240711;
  sim::Population population = sim::generate_population(config);
  std::vector<trace::Trace> traces;
  traces.reserve(population.traces.size());
  for (sim::LabeledTrace& labeled : population.traces) {
    traces.push_back(std::move(labeled.trace));
  }
  parallel::ThreadPool pool(2);
  const core::Thresholds thresholds;
  const std::string by_ref = json::serialize(report::batch_to_json(
      core::analyze_population(std::span<const trace::Trace>(traces),
                               thresholds, &pool),
      /*include_traces=*/true));
  const std::string consumed = json::serialize(report::batch_to_json(
      core::analyze_population(std::move(traces), thresholds, &pool),
      /*include_traces=*/true));
  ASSERT_FALSE(by_ref.empty());
  EXPECT_EQ(by_ref, consumed);
}

TEST(GoldenAb, InPlaceAnalysisOfUniqueAppsMatchesConsuming) {
  // analyze_population(span) analyzes the dedup winners where they lie in
  // the caller's population instead of copying them. On a population where
  // most valid traces are their own application (so nearly every valid
  // trace is a winner) and a third are corrupt, it must serialize exactly
  // like the consuming overload, serially and on a pool, and leave the
  // population untouched.
  sim::PopulationConfig config;
  config.target_traces = 1500;
  config.seed = 20261020;
  config.corruption_fraction = 0.32;
  config.runs_scale = 0.05;
  const std::vector<trace::Trace> traces =
      sim::to_traces(sim::generate_population(config));
  const auto consume_copy = [&] {
    return json::serialize(report::batch_to_json(
        core::analyze_population(std::vector<trace::Trace>(traces)),
        /*include_traces=*/true));
  };
  const std::string consumed = consume_copy();
  ASSERT_FALSE(consumed.empty());
  for (const std::size_t workers : {0u, 3u}) {
    parallel::ThreadPool pool(workers == 0 ? 1 : workers);
    const core::BatchResult in_place = core::analyze_population(
        std::span<const trace::Trace>(traces), {},
        workers == 0 ? nullptr : &pool);
    EXPECT_GT(in_place.preprocess.corrupted, 0u);
    EXPECT_GT(in_place.results.size(), in_place.preprocess.valid / 2);
    EXPECT_EQ(json::serialize(
                  report::batch_to_json(in_place, /*include_traces=*/true)),
              consumed)
        << "workers=" << workers;
  }
  EXPECT_EQ(consume_copy(), consumed);
}

TEST(GoldenAb, OutputIdenticalAcrossWorkerCounts) {
  // One Mean-Shift workspace lives per pool worker; the partition of traces
  // across workers therefore changes which buffers each trace is analyzed
  // in, and must not change a single output byte.
  const core::Thresholds thresholds;
  const std::string one = serialize_population(thresholds, 1);
  const std::string two = serialize_population(thresholds, 2);
  const std::string eight = serialize_population(thresholds, 8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

}  // namespace
