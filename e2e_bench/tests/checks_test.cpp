// Every output check of the benchmark must reject a wrong reference: each
// case feeds a real output and a deliberately wrong expectation.
#include <gtest/gtest.h>

#include <span>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "sim/population.hpp"

namespace {

using e2e::check_funnel;
using e2e::check_reply;
using e2e::check_same_bytes;
using e2e::ExpectedReply;
using e2e::FunnelPlan;
using e2e::SubmitKind;

struct Population {
  mosaic::core::BatchResult batch;
  FunnelPlan plan;
};

Population small_population() {
  mosaic::sim::PopulationConfig config;
  config.target_traces = 200;
  config.seed = 7;
  const mosaic::sim::Population population =
      mosaic::sim::generate_population(config);
  Population out;
  out.plan.inputs = population.traces.size();
  for (const auto& labeled : population.traces) {
    out.plan.planted_corrupt += labeled.corrupted ? 1 : 0;
  }
  const auto traces = mosaic::sim::to_traces(population);
  out.batch = mosaic::core::analyze_population(
      std::span<const mosaic::trace::Trace>(traces));
  return out;
}

TEST(BenchChecks, SummaryMustMatchItsReferenceByteForByte) {
  const Population population = small_population();
  const std::string summary = e2e::summary_json(population.batch);
  EXPECT_EQ(check_same_bytes(summary, summary), "");
  std::string wrong = summary;
  wrong[wrong.size() / 2] ^= 1;
  EXPECT_NE(check_same_bytes(summary, wrong), "");
  EXPECT_NE(check_same_bytes(summary, summary + " "), "");
  EXPECT_NE(check_same_bytes(summary, ""), "");
}

TEST(BenchChecks, FunnelMustMatchThePlan) {
  const Population population = small_population();
  ASSERT_GT(population.plan.planted_corrupt, 0u);
  EXPECT_EQ(check_funnel(population.batch, population.plan), "");

  FunnelPlan more_inputs = population.plan;
  ++more_inputs.inputs;
  EXPECT_NE(check_funnel(population.batch, more_inputs), "");

  FunnelPlan fewer_corrupt = population.plan;
  --fewer_corrupt.planted_corrupt;
  EXPECT_NE(check_funnel(population.batch, fewer_corrupt), "");
}

TEST(BenchChecks, FunnelMustAddUp) {
  const Population population = small_population();

  auto uncounted = population.batch;
  ++uncounted.preprocess.valid;
  EXPECT_NE(check_funnel(uncounted, population.plan), "");

  auto extra_retained = population.batch;
  ++extra_retained.preprocess.retained;
  EXPECT_NE(check_funnel(extra_retained, population.plan), "");

  auto lost_result = population.batch;
  lost_result.results.pop_back();
  EXPECT_NE(check_funnel(lost_result, population.plan), "");
}

TEST(BenchChecks, ReplyMustMatchThePlannedRole) {
  mosaic::dist::SubmitReply reply;
  reply.ok = true;
  reply.cached = false;
  reply.categories = {"read_periodic", "write_low"};
  const ExpectedReply fresh{SubmitKind::kNew, reply.categories};
  EXPECT_EQ(check_reply(reply, fresh), "");

  // A new trace must not come from the cache, a repeat must.
  EXPECT_NE(check_reply(reply, ExpectedReply{SubmitKind::kRepeat,
                                             reply.categories}),
            "");
  auto cached = reply;
  cached.cached = true;
  EXPECT_NE(check_reply(cached, fresh), "");
  EXPECT_EQ(check_reply(cached, ExpectedReply{SubmitKind::kRepeat,
                                              reply.categories}),
            "");

  // A planted corrupt trace must be rejected.
  EXPECT_NE(check_reply(reply, ExpectedReply{SubmitKind::kCorrupt, {}}), "");
  auto rejected = reply;
  rejected.ok = false;
  EXPECT_EQ(check_reply(rejected, ExpectedReply{SubmitKind::kCorrupt, {}}),
            "");
  EXPECT_NE(check_reply(rejected, fresh), "");

  // Categories must equal the in-process analysis.
  EXPECT_NE(check_reply(reply, ExpectedReply{SubmitKind::kNew,
                                             {"read_periodic"}}),
            "");
}

TEST(BenchChecks, CategoryNamesFollowCategoryOrder) {
  const Population population = small_population();
  ASSERT_FALSE(population.batch.results.empty());
  const auto& categories = population.batch.results.front().categories;
  const auto names = e2e::category_names(categories);
  std::size_t contained = 0;
  for (std::size_t i = 0; i < mosaic::core::kCategoryCount; ++i) {
    contained +=
        categories.contains(static_cast<mosaic::core::Category>(i)) ? 1 : 0;
  }
  EXPECT_EQ(names.size(), contained);
  for (const std::string& name : names) {
    const auto category = mosaic::core::category_from_name(name);
    ASSERT_TRUE(category.has_value()) << name;
    EXPECT_TRUE(categories.contains(*category));
  }
}

}  // namespace
