#include "checks.hpp"

#include "json/json.hpp"
#include "report/json_output.hpp"
#include "util/strings.hpp"

namespace e2e {

using mosaic::core::BatchResult;

std::string check_same_bytes(const std::string& output,
                             const std::string& reference) {
  if (output == reference) return {};
  std::size_t at = 0;
  while (at < output.size() && at < reference.size() &&
         output[at] == reference[at]) {
    ++at;
  }
  return "output differs from the reference at byte " + std::to_string(at) +
         " (" + std::to_string(output.size()) + " vs " +
         std::to_string(reference.size()) + " bytes)";
}

std::string check_funnel(const BatchResult& batch, const FunnelPlan& plan) {
  const auto& stats = batch.preprocess;
  const auto n = [](std::size_t value) { return std::to_string(value); };
  if (stats.input_traces != plan.inputs) {
    return "funnel counts " + n(stats.input_traces) + " inputs, " +
           n(plan.inputs) + " were planted";
  }
  if (stats.load_failed + stats.corrupted + stats.valid !=
      stats.input_traces) {
    return "load-failed " + n(stats.load_failed) + " + corrupted " +
           n(stats.corrupted) + " + valid " + n(stats.valid) +
           " != input " + n(stats.input_traces);
  }
  if (stats.load_failed + stats.corrupted != plan.planted_corrupt) {
    return "evicted " + n(stats.load_failed + stats.corrupted) + ", " +
           n(plan.planted_corrupt) + " corruptions were planted";
  }
  if (stats.retained != stats.unique_applications ||
      batch.results.size() != stats.retained ||
      batch.runs_per_app.size() != stats.unique_applications) {
    return "retained " + n(stats.retained) + " / results " +
           n(batch.results.size()) + " != unique applications " +
           n(stats.unique_applications) + " / run map " +
           n(batch.runs_per_app.size());
  }
  return {};
}

std::string summary_json(const BatchResult& batch) {
  return mosaic::json::serialize(mosaic::report::batch_to_json(batch));
}

std::string check_reply(const mosaic::dist::SubmitReply& reply,
                        const ExpectedReply& expected) {
  if (expected.kind == SubmitKind::kCorrupt) {
    return reply.ok ? "a planted corrupt trace was accepted" : std::string();
  }
  if (!reply.ok) return "rejected: " + reply.error;
  const bool want_hit = expected.kind == SubmitKind::kRepeat;
  if (reply.cached != want_hit) {
    return want_hit ? "a planted repeat missed the cache"
                    : "a new trace was served from the cache";
  }
  if (reply.categories != expected.categories) {
    return "categories [" + mosaic::util::join(reply.categories, ", ") +
           "] != analyzer's [" +
           mosaic::util::join(expected.categories, ", ") + "]";
  }
  return {};
}

std::vector<std::string> category_names(
    const mosaic::core::CategorySet& categories) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < mosaic::core::kCategoryCount; ++i) {
    const auto category = static_cast<mosaic::core::Category>(i);
    if (categories.contains(category)) {
      names.emplace_back(mosaic::core::category_name(category));
    }
  }
  return names;
}

}  // namespace e2e
