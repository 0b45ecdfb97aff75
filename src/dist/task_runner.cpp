#include "dist/task_runner.hpp"

#include <utility>

#include "core/pipeline.hpp"
#include "ingest/shard.hpp"

namespace mosaic::dist {

util::Expected<report::PartialArtifact> run_shard(
    const std::vector<std::string>& paths,
    const ingest::IngestOptions& options, const core::Thresholds& thresholds,
    parallel::ThreadPool& pool) {
  ingest::IngestOptions shard_options = options;
  if (!shard_options.journal_path.empty()) {
    shard_options.journal_path =
        ingest::shard_suffix_path(options.journal_path, options.shard.index);
  }
  auto ingested = ingest::ingest_paths(paths, shard_options, pool);
  if (!ingested.has_value()) return std::move(ingested).error();

  report::PartialArtifact out;
  out.shard_index = options.shard.index;
  out.shard_count = options.shard.count;
  out.ingest = ingested->stats;
  out.journal_path = shard_options.journal_path;
  if (out.ingest.aborted) return out;

  std::vector<std::string> retained_paths =
      std::move(ingested->pre.retained_paths);
  core::BatchResult batch = core::analyze_preprocessed(
      std::move(ingested->pre), thresholds, &pool);
  MOSAIC_ASSERT(batch.results.size() == retained_paths.size());

  out.stats = batch.preprocess;
  out.runs_per_app = std::move(batch.runs_per_app);
  out.traces.reserve(batch.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    report::ShardTraceResult entry;
    // The dedup primary key: read + written bytes, the same uint64 sums
    // Trace::total_bytes() computes over the same file records.
    entry.total_bytes =
        batch.results[i].bytes_read + batch.results[i].bytes_written;
    entry.result = std::move(batch.results[i]);
    entry.source_path = std::move(retained_paths[i]);
    out.traces.push_back(std::move(entry));
  }
  return out;
}

}  // namespace mosaic::dist
