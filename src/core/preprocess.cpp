#include "core/preprocess.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"

namespace mosaic::core {

namespace {

/// Key under which validity evictions appear in the ErrorCode-keyed
/// breakdown; semantic corruption is the same failure class as a bad
/// checksum, so both land on kCorruptTrace.
std::string corrupt_code_name() {
  return std::string(util::error_code_name(util::ErrorCode::kCorruptTrace));
}

// Funnel metrics mirror the PreprocessStats breakdown maps series-for-entry
// and are bumped at the exact same sites, so a --metrics dump always agrees
// with the run's printed funnel summary — including on --resume, where
// journal-replayed evictions land on the same labeled series as live ones.
void count_eviction_metric(std::string_view code_name) {
  obs::Registry::global()
      .counter(obs::labeled(obs::names::kFunnelEvictions, "code", code_name),
               "files evicted from the funnel, by error code")
      .add();
}

void count_corruption_metric(std::string_view kind) {
  obs::Registry::global()
      .counter(obs::labeled(obs::names::kFunnelCorruption, "kind", kind),
               "validity evictions, by corruption kind")
      .add();
}

void count_valid_metric() {
  static obs::Counter& counter = obs::Registry::global().counter(
      obs::names::kFunnelValid, "traces that passed the validity check");
  counter.add();
}

/// Counts one validity-check outcome on `stats`; true when the trace is
/// valid and goes on to dedup.
bool count_validity(const trace::ValidityReport& report,
                    PreprocessStats& stats) {
  if (!report.valid()) {
    ++stats.corrupted;
    ++stats.corruption_breakdown[trace::corruption_kind_name(report.kind)];
    ++stats.eviction_breakdown[corrupt_code_name()];
    count_corruption_metric(trace::corruption_kind_name(report.kind));
    count_eviction_metric(corrupt_code_name());
    return false;
  }
  ++stats.valid;
  count_valid_metric();
  return true;
}

/// The body of every one-shot funnel: validates and deduplicates `traces`
/// into `result` and appends `take(i)` to `retained` for each retained
/// traces[i], in input order. `take` moves, copies or points at the trace.
template <typename Retained, typename Take>
void preprocess_traces(std::span<const trace::Trace> traces,
                       double validity_slack_seconds, PreprocessResult& result,
                       std::vector<Retained>& retained, const Take& take) {
  result.stats.input_traces = traces.size();
  // The winner is a pointer into `traces` plus its cached byte total, so
  // duplicates compare without rescanning the incumbent's file list.
  struct InputWinner {
    const trace::Trace* trace = nullptr;
    std::uint64_t total_bytes = 0;

    DedupRank rank() const noexcept {
      return {total_bytes, trace->meta.job_id, {}};
    }
  };
  DedupLedger<InputWinner> ledger;
  std::string key;  // scratch app key, reused across traces
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!count_validity(validate(traces[i], validity_slack_seconds),
                        result.stats)) {
      continue;
    }
    traces[i].app_key(key);
    const DedupRank rank{traces[i].total_bytes(), traces[i].meta.job_id, {}};
    if (auto* slot = ledger.admit(key, rank)) {
      slot->winner = {&traces[i], rank.total_bytes};
    }
  }
  std::vector<bool> keep(traces.size(), false);
  for (const auto& [app_key, slot] : ledger) {
    keep[static_cast<std::size_t>(slot.winner.trace - traces.data())] = true;
    result.runs_per_app.emplace_hint(result.runs_per_app.end(), app_key,
                                     slot.runs);
  }
  retained.reserve(ledger.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (keep[i]) retained.push_back(take(i));
  }
  result.retained_paths.assign(result.retained.size(), std::string());
  result.stats.unique_applications = ledger.size();
  result.stats.retained = ledger.size();
}

}  // namespace

bool outranks(const DedupRank& challenger,
              const DedupRank& incumbent) noexcept {
  if (challenger.total_bytes != incumbent.total_bytes) {
    return challenger.total_bytes > incumbent.total_bytes;
  }
  // Ties break on stable identity so the winner is independent of input
  // order, of the order parallel workers deliver traces, of journal replay
  // and of how the corpus was sharded.
  if (challenger.job_id != incumbent.job_id) {
    return challenger.job_id < incumbent.job_id;
  }
  return challenger.path < incumbent.path;
}

PreprocessResult preprocess(std::vector<trace::Trace> traces,
                            double validity_slack_seconds) {
  PreprocessResult result;
  preprocess_traces(traces, validity_slack_seconds, result, result.retained,
                    [&](std::size_t i) -> trace::Trace&& {
                      return std::move(traces[i]);
                    });
  return result;
}

PreprocessResult preprocess(std::span<const trace::Trace> traces,
                            double validity_slack_seconds) {
  PreprocessResult result;
  preprocess_traces(traces, validity_slack_seconds, result, result.retained,
                    [&](std::size_t i) -> const trace::Trace& {
                      return traces[i];
                    });
  return result;
}

PreprocessResult preprocess(std::span<const trace::Trace> traces,
                            std::vector<const trace::Trace*>& winners,
                            double validity_slack_seconds) {
  PreprocessResult result;
  winners.clear();
  preprocess_traces(traces, validity_slack_seconds, result, winners,
                    [&](std::size_t i) { return &traces[i]; });
  return result;
}

trace::ValidityReport StreamingPreprocessor::add_trace(
    trace::Trace trace, std::string source_path) {
  ++stats_.input_traces;
  const trace::ValidityReport report = validate(trace, slack_);
  if (!count_validity(report, stats_)) return report;
  const DedupRank rank{trace.total_bytes(), trace.meta.job_id, source_path};
  if (auto* slot = ledger_.admit(trace.app_key(), rank)) {
    slot->winner = {rank.total_bytes, rank.job_id, std::move(source_path),
                    std::move(trace)};
  }
  return report;
}

void StreamingPreprocessor::add_load_failure(util::ErrorCode code) {
  ++stats_.input_traces;
  ++stats_.load_failed;
  ++stats_.eviction_breakdown[std::string(util::error_code_name(code))];
  count_eviction_metric(util::error_code_name(code));
}

void StreamingPreprocessor::add_valid_digest(ValidDigest digest) {
  ++stats_.input_traces;
  ++stats_.valid;
  count_valid_metric();
  if (auto* slot = ledger_.admit(
          digest.app_key,
          DedupRank{digest.total_bytes, digest.job_id, digest.path})) {
    // No trace in memory: finish() re-reads the file if it still wins.
    slot->winner = {digest.total_bytes, digest.job_id, std::move(digest.path),
                    std::nullopt};
  }
}

void StreamingPreprocessor::add_journaled_eviction(
    std::string_view code_name, std::string_view corruption_kind) {
  ++stats_.input_traces;
  ++stats_.eviction_breakdown[std::string(code_name)];
  count_eviction_metric(code_name);
  if (!corruption_kind.empty()) {
    ++stats_.corrupted;
    ++stats_.corruption_breakdown[std::string(corruption_kind)];
    count_corruption_metric(corruption_kind);
  } else {
    ++stats_.load_failed;
  }
}

PreprocessResult StreamingPreprocessor::finish(
    const std::function<util::Expected<trace::Trace>(const std::string&)>&
        reload) {
  PreprocessResult result;
  result.stats = std::move(stats_);
  result.retained.reserve(ledger_.size());

  // Un-counts a journal-replayed winner that could not be re-loaded: its
  // run is no longer a valid execution. The app's other runs keep their
  // counts; aggregation only consults runs_per_app for retained apps, so a
  // leftover key without a retained trace is inert.
  const auto demote = [&result](Ledger::Slot& slot) {
    if (result.stats.valid > 0) --result.stats.valid;
    --slot.runs;
  };
  // The ledger iterates in app-key order — the deterministic output order
  // regardless of how workers raced during folding.
  for (auto& [key, slot] : ledger_) {
    Winner& winner = slot.winner;
    if (!winner.trace.has_value()) {
      // Journal-replayed winner: the trace bytes were never loaded this run.
      if (!reload) {
        MOSAIC_LOG_WARN("preprocess: no reload hook for journaled winner %s; "
                        "dropping application %s",
                        winner.source_path.c_str(), key.c_str());
        demote(slot);
      } else if (auto loaded = reload(winner.source_path); loaded.has_value()) {
        winner.trace = std::move(*loaded);
      } else {
        MOSAIC_LOG_WARN("preprocess: journaled winner %s no longer loads "
                        "(%s); dropping application %s",
                        winner.source_path.c_str(),
                        loaded.error().to_string().c_str(), key.c_str());
        ++result.stats.load_failed;
        ++result.stats.eviction_breakdown[std::string(
            util::error_code_name(loaded.error().code))];
        count_eviction_metric(util::error_code_name(loaded.error().code));
        demote(slot);
      }
    }
    if (slot.runs != 0) {
      result.runs_per_app.emplace_hint(result.runs_per_app.end(), key,
                                       slot.runs);
    }
    if (!winner.trace.has_value()) continue;
    result.retained.push_back(std::move(*winner.trace));
    result.retained_paths.push_back(std::move(winner.source_path));
  }
  ledger_ = Ledger{};

  result.stats.unique_applications = result.retained.size();
  result.stats.retained = result.retained.size();
  return result;
}

}  // namespace mosaic::core
