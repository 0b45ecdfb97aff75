// Seeded trace populations for the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/population.hpp"

namespace e2e {

/// Paper Fig. 3: 32% of the Blue Waters 2019 traces are corrupted. Every
/// workload plants this share of corrupted traces.
inline constexpr double kBlueWatersCorruption = 0.32;

/// A Blue Waters-like population of `traces` executions (the default
/// archetype mix and rerun counts, `corruption` of them corrupted), with
/// the split of executions between archetypes fixed at its expected value.
///
/// sim::generate_population already fixes the split of *applications*, but
/// a few archetypes rerun tens of times per application, so at a few
/// thousand traces the split of *executions* — and with it the corpus bytes
/// and the work per pass — swings by half between seeds. Generating each
/// archetype's expected share on its own keeps the seed in charge of the run
/// counts and every trace's contents while the corpus composition, and so
/// the cost of a pass, stays put. Job ids are renumbered to stay unique.
[[nodiscard]] std::vector<mosaic::sim::LabeledTrace> stratified_population(
    std::size_t traces, std::uint64_t seed, double corruption,
    double runs_scale, mosaic::parallel::ThreadPool& pool);

/// Writes every trace to `dir`/job_<id>.mbt, or .darshan.txt when `text`,
/// in parallel, and returns the paths in population order (empty when a
/// write failed).
[[nodiscard]] std::vector<std::string> write_traces(
    const std::vector<mosaic::sim::LabeledTrace>& population,
    const std::string& dir, bool text, mosaic::parallel::ThreadPool& pool);

}  // namespace e2e
