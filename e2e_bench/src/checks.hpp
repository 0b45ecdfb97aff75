// Output checks applied to every timed operation. Each returns an empty
// string when the output is right and a description of the first
// difference otherwise, so the benchmark can count the failure and the
// self-test can assert that a wrong reference is caught.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/protocol.hpp"

namespace e2e {

/// Byte-for-byte equality of a serialized output and its reference.
[[nodiscard]] std::string check_same_bytes(const std::string& output,
                                           const std::string& reference);

/// What the benchmark knows about a population before the program sees it.
struct FunnelPlan {
  std::size_t inputs = 0;           ///< files written / traces generated
  std::size_t planted_corrupt = 0;  ///< traces corrupted in set-up
};

/// The funnel adds up: every input is counted once (input = load-failed +
/// corrupted + valid), every planted corruption is evicted, and one trace
/// is retained per unique application.
[[nodiscard]] std::string check_funnel(const mosaic::core::BatchResult& batch,
                                       const FunnelPlan& plan);

/// Serialized batch summary, as `mosaic batch --json` writes it.
[[nodiscard]] std::string summary_json(const mosaic::core::BatchResult& batch);

/// The planned role of one submission.
enum class SubmitKind { kNew, kRepeat, kCorrupt };

struct ExpectedReply {
  SubmitKind kind = SubmitKind::kNew;
  /// Category names of Analyzer::analyze on the same trace (empty for
  /// corrupt submissions).
  std::vector<std::string> categories;
};

/// A daemon reply matches the plan: corrupt traces are rejected, repeats
/// come back as cache hits, new traces as misses, and the categories equal
/// the in-process analysis of the same trace.
[[nodiscard]] std::string check_reply(const mosaic::dist::SubmitReply& reply,
                                      const ExpectedReply& expected);

/// Category names of a result, in category order (as the daemon sends them).
[[nodiscard]] std::vector<std::string> category_names(
    const mosaic::core::CategorySet& categories);

}  // namespace e2e
