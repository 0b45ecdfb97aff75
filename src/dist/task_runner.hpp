// The one shard driver: ingests and analyzes one shard slice and assembles
// its `mosaic-partial-v1` artifact. Every sharded path calls it — `mosaic
// batch --shard K/N` and `--shards N`, the dispatch worker's task loop, and
// the manager's degradation path (when every worker is lost the manager runs
// the remaining shards in-process) — so merging the partials, however many
// processes produced them, in whatever order, after however many retries,
// is byte-identical to the single-shot run.
#pragma once

#include <string>
#include <vector>

#include "core/thresholds.hpp"
#include "ingest/ingest.hpp"
#include "parallel/thread_pool.hpp"
#include "report/partial.hpp"
#include "util/error.hpp"

namespace mosaic::dist {

/// Ingests the slice of `paths` that `options.shard` owns, analyzes its
/// dedup winners and returns the shard's partial artifact. A resume journal
/// in `options` is suffixed per shard (ingest::shard_suffix_path), so shard
/// runs never share one; the artifact records the suffixed path. Per-file
/// failures are folded into the funnel (data, not errors); only setup-level
/// failures return an Error. An aborted ingest (`abort_after_files`) returns
/// before analysis with `ingest.aborted` set and no traces. The metrics and
/// provenance paths stay empty: they depend on the caller's obs session.
[[nodiscard]] util::Expected<report::PartialArtifact> run_shard(
    const std::vector<std::string>& paths,
    const ingest::IngestOptions& options, const core::Thresholds& thresholds,
    parallel::ThreadPool& pool);

}  // namespace mosaic::dist
