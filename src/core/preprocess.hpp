// Trace pre-processing (paper §III-B1, steps (1) of Fig. 1; evaluated in
// Fig. 3).
//
// Two reductions run before categorization:
//   1. Validity check — corrupted traces (e.g. deallocation recorded past the
//      end of execution) are evicted. Blue Waters 2019: 32% evicted.
//   2. Application dedup — all executions of the same application by the
//      same user are assumed to share categories; only the heaviest (most
//      I/O-intensive) trace per (user, app) is analyzed. Blue Waters 2019:
//      8% of valid traces retained.
// The runs-per-application map is kept so reports can re-weight single-run
// results to the full execution set ("all runs" columns of Tables II/III).
//
// The dedup rule lives in one place, DedupLedger: per application key it
// counts the valid runs and keeps the winner chosen by outranks(), so the
// retained run never depends on arrival order. Every driver folds through
// it:
//   - preprocess(): one-shot over in-memory traces (tests, library use);
//     retained traces keep the input order. Its overloads move, copy or
//     point at the winners; all three share one funnel body;
//   - StreamingPreprocessor: incremental folding for the fault-tolerant
//     ingest path, which streams files through a bounded window and also
//     counts loads that failed before validation (io-error, parse-error, …)
//     so the funnel covers every file scanned; retained traces come out
//     sorted by application key;
//   - report::merge_partials(): the cross-shard replay over shard winners.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace mosaic::core {

/// Funnel counters matching paper Fig. 3, extended with pre-validity load
/// failures so `input_traces` equals the number of files scanned.
struct PreprocessStats {
  std::size_t input_traces = 0;
  std::size_t load_failed = 0;      ///< evicted before validation (io/parse/…)
  std::size_t corrupted = 0;        ///< evicted by the validity check
  std::size_t valid = 0;            ///< input - load_failed - corrupted
  std::size_t unique_applications = 0;
  std::size_t retained = 0;         ///< == unique_applications
  /// Validity eviction reasons, keyed by CorruptionKind name.
  std::map<std::string, std::size_t> corruption_breakdown;
  /// All evictions keyed by util::ErrorCode name ("io-error", "parse-error",
  /// "corrupt-trace", "not-found", "timeout"). corrupted + load_failed in sum.
  std::map<std::string, std::size_t> eviction_breakdown;
};

/// Pre-processing output: the retained traces plus bookkeeping.
struct PreprocessResult {
  std::vector<trace::Trace> retained;
  /// Source path of retained[i] — the dedup tiebreak identity a sharded
  /// batch records into its partial artifact so the merge can replay the
  /// cross-shard dedup. Empty strings when the one-shot driver was fed
  /// in-memory traces that never had files.
  std::vector<std::string> retained_paths;
  /// Valid executions per application key (user/app), including the retained
  /// one. Drives the "all runs" weighting in reports.
  std::map<std::string, std::size_t> runs_per_app;
  PreprocessStats stats;
};

/// What the dedup rule compares for one valid run.
struct DedupRank {
  std::uint64_t total_bytes = 0;
  std::uint64_t job_id = 0;
  std::string_view path;  ///< source path; empty for traces without files
};

/// The dedup rule: true when `challenger` should replace `incumbent` as its
/// application's retained run — heavier total bytes, then smaller job id,
/// then smaller source path. Equal ranks keep the incumbent.
[[nodiscard]] bool outranks(const DedupRank& challenger,
                            const DedupRank& incumbent) noexcept;

/// Per-application dedup state: the valid-run count and the current winner
/// in one app-keyed map slot, so each valid run costs one tree lookup.
/// Iteration is sorted by application key. `Winner` is the driver's record
/// of the current winner and reports its rank through `rank()`, so each
/// driver stores only what the rule and its own output need.
template <typename Winner>
class DedupLedger {
 public:
  struct Slot {
    std::size_t runs = 0;
    Winner winner{};
  };
  using Map = std::map<std::string, Slot, std::less<>>;

  /// Counts one valid run of `app_key`. Returns its slot when the run
  /// outranks the current winner (or is the application's first run); the
  /// caller then records the run as `winner`, so that `winner.rank()` equals
  /// `rank`. Returns nullptr when the current winner stays.
  Slot* admit(std::string_view app_key, const DedupRank& rank) {
    auto it = slots_.lower_bound(app_key);
    const bool first = it == slots_.end() || it->first != app_key;
    if (first) {
      it = slots_.emplace_hint(it, std::piecewise_construct,
                               std::forward_as_tuple(app_key),
                               std::forward_as_tuple());
    }
    Slot& slot = it->second;
    ++slot.runs;
    if (!first && !outranks(rank, slot.winner.rank())) return nullptr;
    return &slot;
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] typename Map::iterator begin() noexcept {
    return slots_.begin();
  }
  [[nodiscard]] typename Map::iterator end() noexcept { return slots_.end(); }

 private:
  Map slots_;
};

/// Runs both reductions. Consumes the input vector (traces are moved out).
[[nodiscard]] PreprocessResult preprocess(std::vector<trace::Trace> traces,
                                          double validity_slack_seconds = 1.0);

/// Non-consuming variant: validates and deduplicates by reference, then
/// copies the retained winners into the result (Blue Waters 2019: 8% of
/// valid traces; nearly all of them in a population of one-run
/// applications). Produces the exact same result as the consuming overload
/// on the same input. Callers that only read the winners once should use
/// the overload below, which copies nothing.
[[nodiscard]] PreprocessResult preprocess(std::span<const trace::Trace> traces,
                                          double validity_slack_seconds = 1.0);

/// In-place variant: the same funnel, copying no trace. `winners` is
/// replaced by one pointer into `traces` per retained trace — the traces,
/// in the order, that the overloads above retain — and the result's
/// `retained` and `retained_paths` stay empty. The pointers are valid while
/// `traces` is. analyze_population(span) analyzes the winners through it.
[[nodiscard]] PreprocessResult preprocess(
    std::span<const trace::Trace> traces,
    std::vector<const trace::Trace*>& winners,
    double validity_slack_seconds = 1.0);

/// Incremental validity + dedup folding with O(unique applications) state.
///
/// The ingest pipeline feeds traces (and failures) one at a time; only the
/// current winner per application key is kept in memory. Journal replay can
/// fold a file by digest alone — if the digest wins dedup, the file is
/// re-read lazily in finish(). Retained traces are emitted sorted by
/// application key.
class StreamingPreprocessor {
 public:
  /// Stand-in for a valid trace whose contents are not in memory: just
  /// enough to run dedup without re-reading the file.
  struct ValidDigest {
    std::string path;
    std::string app_key;
    std::uint64_t total_bytes = 0;
    std::uint64_t job_id = 0;
  };

  explicit StreamingPreprocessor(double validity_slack_seconds = 1.0)
      : slack_(validity_slack_seconds) {}

  /// Validates and folds one parsed trace; invalid traces are evicted and
  /// counted. The returned report says why (kNone when kept for dedup).
  trace::ValidityReport add_trace(trace::Trace trace, std::string source_path);

  /// Folds a file that failed before validation (io/parse/not-found/timeout).
  void add_load_failure(util::ErrorCode code);

  /// Replays a journaled valid file without re-reading it.
  void add_valid_digest(ValidDigest digest);

  /// Replays a journaled eviction. `corruption_kind` is empty unless the
  /// eviction came from the validity check.
  void add_journaled_eviction(std::string_view code_name,
                              std::string_view corruption_kind);

  /// Inputs folded so far (traces, digests and failures).
  [[nodiscard]] std::size_t input_count() const noexcept {
    return stats_.input_traces;
  }

  /// Resolves digest-only dedup winners through `reload` (a failure there
  /// demotes the file to an eviction) and returns the final funnel result
  /// with retained traces sorted by application key. The preprocessor is
  /// consumed.
  [[nodiscard]] PreprocessResult finish(
      const std::function<util::Expected<trace::Trace>(const std::string&)>&
          reload = {});

 private:
  struct Winner {
    std::uint64_t total_bytes = 0;
    std::uint64_t job_id = 0;
    std::string source_path;
    /// Engaged unless the winner came from journal replay.
    std::optional<trace::Trace> trace;

    [[nodiscard]] DedupRank rank() const noexcept {
      return {total_bytes, job_id, source_path};
    }
  };
  using Ledger = DedupLedger<Winner>;

  double slack_;
  Ledger ledger_;
  PreprocessStats stats_;
};

}  // namespace mosaic::core
