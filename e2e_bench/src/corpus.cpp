#include "corpus.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common.hpp"
#include "darshan/binary_format.hpp"
#include "darshan/text_format.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace sim = mosaic::sim;

std::vector<sim::LabeledTrace> stratified_population(
    std::size_t traces, std::uint64_t seed, double corruption,
    double runs_scale, mosaic::parallel::ThreadPool& pool) {
  const std::vector<sim::Archetype> profile = sim::blue_waters_profile();

  // Expected executions per archetype: its share of applications times its
  // mean rerun count (at least one run each).
  std::vector<double> weight;
  double total = 0.0;
  for (const sim::Archetype& archetype : profile) {
    weight.push_back(archetype.app_fraction *
                     std::max(1.0, archetype.mean_runs * runs_scale));
    total += weight.back();
  }
  // Largest-remainder rounding so the counts add up to `traces`.
  std::vector<std::size_t> count(profile.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t a = 0; a < profile.size(); ++a) {
    const double exact = static_cast<double>(traces) * weight[a] / total;
    count[a] = static_cast<std::size_t>(std::floor(exact));
    assigned += count[a];
    remainder.emplace_back(exact - std::floor(exact), a);
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (std::size_t i = 0; assigned < traces; ++i, ++assigned) {
    ++count[remainder[i % remainder.size()].second];
  }

  std::vector<sim::LabeledTrace> out;
  out.reserve(traces);
  for (std::size_t a = 0; a < profile.size(); ++a) {
    if (count[a] == 0) continue;
    sim::PopulationConfig config;
    config.target_traces = count[a];
    config.seed = mosaic::util::mix64(seed ^ (0x9e3779b97f4a7c15ull * (a + 1)));
    config.corruption_fraction = corruption;
    config.runs_scale = runs_scale;
    config.archetypes = {profile[a]};
    sim::Population part = sim::generate_population(config, &pool);
    for (sim::LabeledTrace& labeled : part.traces) {
      labeled.trace.meta.job_id = 9000000 + out.size();
      out.push_back(std::move(labeled));
    }
  }
  return out;
}

std::vector<std::string> write_traces(
    const std::vector<sim::LabeledTrace>& population, const std::string& dir,
    bool text, mosaic::parallel::ThreadPool& pool) {
  std::vector<std::string> paths(population.size());
  std::atomic<bool> ok{true};
  mosaic::parallel::parallel_for(
      pool, population.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto& trace = population[i].trace;
          const std::string stem =
              dir + "/job_" + std::to_string(trace.meta.job_id);
          paths[i] = stem + (text ? ".darshan.txt" : ".mbt");
          const bool written =
              text ? write_file(paths[i], mosaic::darshan::to_text(trace))
                   : write_file(paths[i], mosaic::darshan::to_mbt(trace));
          if (!written) ok = false;
        }
      });
  if (!ok) paths.clear();
  return paths;
}

}  // namespace e2e
