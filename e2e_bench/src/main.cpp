// End-to-end benchmark of mosaic: one command, four workloads, each driven
// through the library's public entry points the way `mosaic batch` and
// `mosaic submit` drive them. See ../README.md for the metrics and how to
// run it.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--spans <path>] [--scale tiny]
//
// The last line of standard output is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using e2e::Options;

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else if (key == "--spans") {
        options.spans_path = value;
      } else if (key == "--scale") {
        if (value != "tiny" && value != "full") return false;
        options.scale =
            value == "tiny" ? e2e::Scale::kTiny : e2e::Scale::kFull;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() &&
         !options.work_dir.empty() && options.seconds > 0.0 &&
         (!options.trace || !options.spans_path.empty());
}

}  // namespace

namespace e2e {

void fill_self_times(const Tracer& tracer, const std::string& root,
                     Values& values, const std::string& layer) {
  const std::vector<Span> spans = tracer.spans();
  const double ops = static_cast<double>(count_roots(spans, root));
  if (ops == 0.0) return;
  for (const auto& [name, ms] : self_ms_by_layer(spans, root)) {
    if (layer.empty() || name == layer) values["self_ms." + name] = ms / ops;
  }
}

}  // namespace e2e

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <batch_mbt|batch_text|"
                 "analyze_unique|serve_submit> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--spans <path>] "
                 "[--scale tiny|full]\n");
    return 2;
  }
  // Rejected submissions are part of the serve_submit plan; their warnings
  // would only bury the report.
  mosaic::util::set_log_level(mosaic::util::LogLevel::kError);

  e2e::Result result(options.workload);
  e2e::Values values;
  bool ok = false;
  if (options.workload == "batch_mbt" || options.workload == "batch_text") {
    ok = e2e::run_batch(options, options.workload == "batch_text", result,
                        values);
  } else if (options.workload == "analyze_unique") {
    ok = e2e::run_analyze(options, result, values);
  } else if (options.workload == "serve_submit") {
    ok = e2e::run_serve(options, result, values);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!ok) return 1;

  if (options.trace) {
    for (const e2e::MetricSpec& spec : e2e::kPerLayer) {
      result.metric(spec.name, values[spec.name], spec.unit);
    }
  } else {
    for (const e2e::MetricSpec& spec : e2e::kEndToEnd) {
      result.metric(spec.name, values[spec.name], spec.unit);
    }
  }
  result.print();
  return 0;
}
