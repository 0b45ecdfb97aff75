// serve_submit: an in-process dist::Daemon with its MDP1 listener on
// loopback, fed by closed-loop clients calling dist::submit_trace_file the
// way `mosaic submit` does, while an open-loop prober polls /healthz.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "corpus.hpp"
#include "core/pipeline.hpp"
#include "darshan/io.hpp"
#include "dist/daemon.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/population.hpp"
#include "util/fs.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace core = mosaic::core;
namespace darshan = mosaic::darshan;
namespace dist = mosaic::dist;
namespace sim = mosaic::sim;
namespace util = mosaic::util;

namespace {

/// Traces generated for the plan. At today's rate a run submits a few
/// hundred; the rest is headroom for a faster daemon. A phase that runs out
/// of plan ends early and is measured over the time it ran.
std::size_t population_size(const Options& options) {
  return options.scale == Scale::kTiny ? 60 : 1200;
}

/// Chance that the plan re-submits an already analyzed trace before each of
/// the remaining traces (the daemon must answer from its result cache).
/// This is an assumption, not measured traffic: nothing records how often
/// clients re-submit identical content. It is set high enough that a run
/// checks several dozen cache hits.
constexpr double kRepeatShare = 0.15;
/// Valid traces submitted during warm-up; planted repeats re-submit these.
constexpr std::size_t kWarmTraces = 6;
/// Closed-loop submit clients in the t4 phase; with the prober that makes
/// four connections.
constexpr std::size_t kClients = 3;
/// The /healthz prober's fixed rate. Also an assumption rather than a
/// measured probe rate: 20 Hz gives a few hundred probes per run, so the
/// p90 has dozens of samples above it.
constexpr double kProbeHz = 20.0;
/// Submissions the traced run decomposes with in-process calls.
constexpr std::size_t kDecomposedSubmits = 300;
/// `mosaic submit --timeout` default.
constexpr double kSubmitTimeoutS = 10.0;

struct PlanItem {
  SubmitKind kind = SubmitKind::kNew;
  std::string path;
};

/// Set-up, run in a forked child: write the traces as .mbt files and the
/// submission plan (warm set first, then a seeded shuffle of the remaining
/// traces with planted repeats of the warm set mixed in).
bool write_plan(const Options& options, const std::string& dir,
                const std::string& plan_path) {
  mosaic::parallel::ThreadPool pool(kThreads);
  const std::vector<sim::LabeledTrace> population = stratified_population(
      population_size(options), options.seed, kBlueWatersCorruption, 1.0,
      pool);

  const std::vector<std::string> paths =
      write_traces(population, dir, false, pool);
  if (paths.empty()) return false;

  std::vector<PlanItem> warm;
  std::vector<PlanItem> rest;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const bool corrupted = population[i].corrupted;
    PlanItem item{corrupted ? SubmitKind::kCorrupt : SubmitKind::kNew,
                  paths[i]};
    if (!corrupted && warm.size() < kWarmTraces) {
      warm.push_back(std::move(item));
    } else {
      rest.push_back(std::move(item));
    }
  }
  if (warm.size() < kWarmTraces) return false;
  util::Rng rng(options.seed ^ 0x5eedull);
  for (std::size_t i = rest.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(rest[i - 1], rest[j]);
  }
  std::ofstream plan(plan_path);
  const auto emit = [&plan](char kind, const std::string& path) {
    plan << kind << ' ' << path << '\n';
  };
  for (const PlanItem& item : warm) emit('w', item.path);
  for (const PlanItem& item : rest) {
    if (rng.uniform() < kRepeatShare) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kWarmTraces) - 1));
      emit('r', warm[pick].path);
    }
    emit(item.kind == SubmitKind::kCorrupt ? 'c' : 'n', item.path);
  }
  return static_cast<bool>(plan.flush());
}

/// GET `target` from the daemon's HTTP endpoint; returns the status code,
/// or 0 on a transport error or timeout.
int http_get_status(std::uint16_t port, const std::string& target) {
  auto conn = util::connect_to(util::Address{"127.0.0.1", port}, 2.0);
  if (!conn.has_value()) return 0;
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (!conn->send_all(request.data(), request.size()).ok()) return 0;
  std::string response;
  char buffer[4096];
  while (true) {
    auto got = conn->recv_some(buffer, sizeof buffer, 2.0);
    if (!got.has_value()) return 0;
    if (*got == 0) break;
    response.append(buffer, *got);
  }
  int status = 0;
  if (std::sscanf(response.c_str(), "HTTP/%*s %d", &status) != 1) return 0;
  return status;
}

/// One finished submission.
struct Sample {
  std::size_t item = 0;
  double latency_s = 0.0;
  std::optional<dist::SubmitReply> reply;  ///< empty on a transport error
  std::string error;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<double> probe_latency_s;  ///< from when each probe was due
  std::vector<int> probe_status;
  double wall_s = 0.0;
  double max_probe_lateness_s = 0.0;  ///< how late the prober started a probe
  dist::DaemonStats before;
  dist::DaemonStats after;
};

}  // namespace

bool run_serve(const Options& options, Result& result, Values& values) {
  const std::string dir = options.work_dir + "/traces";
  const std::string plan_path = options.work_dir + "/plan.txt";
  const double child_setup_s = repeated_child_setup(
      dir, [&] { return write_plan(options, dir, plan_path); },
      kSetupRepeats);
  if (child_setup_s < 0.0) {
    std::fprintf(stderr, "plan set-up failed\n");
    return false;
  }
  const double setup_start = now_s();

  // Read the plan and compute each valid trace's categories in-process:
  // the reference every daemon reply is checked against.
  std::vector<PlanItem> warm;
  std::vector<PlanItem> plan;
  std::vector<ExpectedReply> expected;
  std::vector<ExpectedReply> warm_expected;
  {
    std::ifstream in(plan_path);
    std::string line;
    const core::Analyzer analyzer;
    std::map<std::string, std::vector<std::string>> categories;
    while (std::getline(in, line)) {
      if (line.size() < 3) continue;
      const char kind = line[0];
      PlanItem item{kind == 'c'   ? SubmitKind::kCorrupt
                    : kind == 'r' ? SubmitKind::kRepeat
                                  : SubmitKind::kNew,
                    line.substr(2)};
      ExpectedReply reply{item.kind, {}};
      if (item.kind != SubmitKind::kCorrupt) {
        auto it = categories.find(item.path);
        if (it == categories.end()) {
          auto trace = darshan::read_trace_file(item.path);
          if (!trace.has_value()) {
            std::fprintf(stderr, "cannot read %s\n", item.path.c_str());
            return false;
          }
          it = categories
                   .emplace(item.path,
                            category_names(analyzer.analyze(*trace).categories))
                   .first;
        }
        reply.categories = it->second;
      }
      if (kind == 'w') {
        warm.push_back(std::move(item));
        warm_expected.push_back(std::move(reply));
      } else {
        plan.push_back(std::move(item));
        expected.push_back(std::move(reply));
      }
    }
  }
  if (warm.empty() || plan.empty()) {
    std::fprintf(stderr, "empty submission plan\n");
    return false;
  }

  dist::DaemonOptions daemon_options;
  daemon_options.listen = dist::Address{"127.0.0.1", 0};
  daemon_options.http = dist::Address{"127.0.0.1", 0};
  daemon_options.spool_dir = options.work_dir + "/spool";
  dist::Daemon daemon(std::move(daemon_options));
  if (const auto status = daemon.start(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.error().to_string().c_str());
    return false;
  }
  std::thread serving([&daemon] { daemon.run(); });
  // Stops the daemon and joins its thread on every exit path.
  struct Joiner {
    dist::Daemon& daemon;
    std::thread& thread;
    ~Joiner() {
      daemon.request_stop();
      if (thread.joinable()) thread.join();
    }
  } joiner{daemon, serving};
  const dist::Address address{"127.0.0.1", daemon.listen_port()};
  const std::uint16_t http_port = daemon.http_port();

  // Warm-up: the warm set enters the result cache, and one probe opens the
  // HTTP path.
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const auto reply =
        dist::submit_trace_file(address, warm[i].path, kSubmitTimeoutS);
    if (!reply.has_value()) {
      std::fprintf(stderr, "warm-up submit failed: %s\n",
                   reply.error().to_string().c_str());
      return false;
    }
    const std::string problem = check_reply(*reply, warm_expected[i]);
    result.check(problem.empty(), "warm-up submit: " + problem);
  }
  result.check(http_get_status(http_port, "/healthz") == 200,
               "warm-up /healthz is not 200");
  const double setup_s = child_setup_s + (now_s() - setup_start);
  result.note("setup_generate_s", child_setup_s, "s");
  result.note("setup_prepare_s", setup_s - child_setup_s, "s");
  // From here on the peak covers the daemon under submit load alone.
  reset_peak_rss();
  result.note("rss_after_setup_mb", current_rss_mib(), "MiB");

  Tracer tracer;
  std::atomic<std::size_t> cursor{0};

  // Runs `clients` closed-loop submitters (and, when `probe`, the /healthz
  // prober) for `seconds`, continuing through the plan from `cursor`.
  const auto phase = [&](std::size_t clients, bool probe, double seconds,
                         bool traced, const char* root) {
    Tracer* t = traced ? &tracer : nullptr;
    PhaseResult out;
    out.before = daemon.stats();
    const double start = now_s();
    const double deadline = start + seconds;
    std::vector<std::vector<Sample>> per_client(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (now_s() < deadline) {
          const std::size_t item = cursor.fetch_add(1);
          if (item >= plan.size()) break;
          const std::uint64_t op = traced ? tracer.new_op() : 0;
          Sample sample;
          sample.item = item;
          const double begin = now_s();
          {
            const Tracer::Scope root_span(t, root, op);
            const Tracer::Scope span(t, "dist.submit_trace_file", op);
            auto reply = dist::submit_trace_file(address, plan[item].path,
                                                 kSubmitTimeoutS);
            if (reply.has_value()) {
              sample.reply = std::move(*reply);
            } else {
              sample.error = reply.error().to_string();
            }
          }
          sample.latency_s = now_s() - begin;
          per_client[c].push_back(std::move(sample));
        }
      });
    }
    if (probe) {
      threads.emplace_back([&] {
        const double period = 1.0 / kProbeHz;
        for (std::size_t k = 0;; ++k) {
          const double due = start + static_cast<double>(k) * period;
          if (due >= deadline) break;
          if (const double wait = due - now_s(); wait > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          out.max_probe_lateness_s =
              std::max(out.max_probe_lateness_s, now_s() - due);
          const std::uint64_t op = traced ? tracer.new_op() : 0;
          int status = 0;
          {
            const Tracer::Scope root_span(t, "bench.probe", op);
            const Tracer::Scope span(t, "obs.healthz", op);
            status = http_get_status(http_port, "/healthz");
          }
          out.probe_latency_s.push_back(now_s() - due);
          out.probe_status.push_back(status);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    out.wall_s = now_s() - start;
    out.after = daemon.stats();
    for (auto& samples : per_client) {
      for (Sample& sample : samples) out.samples.push_back(std::move(sample));
    }

    // Check every reply against the plan, and the daemon's own counters
    // against what the phase submitted.
    std::uint64_t repeats = 0;
    std::uint64_t corrupt = 0;
    for (const Sample& sample : out.samples) {
      const ExpectedReply& want = expected[sample.item];
      repeats += want.kind == SubmitKind::kRepeat ? 1 : 0;
      corrupt += want.kind == SubmitKind::kCorrupt ? 1 : 0;
      if (!sample.reply.has_value()) {
        result.check(false, "submit transport error: " + sample.error);
        continue;
      }
      const std::string problem = check_reply(*sample.reply, want);
      result.check(problem.empty(), plan[sample.item].path + ": " + problem);
    }
    for (const int status : out.probe_status) {
      result.check(status == 200,
                     "/healthz answered " + std::to_string(status));
    }
    const std::uint64_t hits = out.after.cache_hits - out.before.cache_hits;
    const std::uint64_t rejected = out.after.rejected - out.before.rejected;
    result.check(hits == repeats && rejected == corrupt,
                 "daemon counted " + std::to_string(hits) + " cache hits / " +
                     std::to_string(rejected) + " rejections; the plan had " +
                     std::to_string(repeats) + " / " +
                     std::to_string(corrupt));
    return out;
  };
  const auto latencies = [](const PhaseResult& phase_result) {
    std::vector<double> ms;
    for (const Sample& sample : phase_result.samples) {
      ms.push_back(sample.latency_s * 1e3);
    }
    return ms;
  };
  const auto rate = [](const PhaseResult& phase_result) {
    return static_cast<double>(phase_result.samples.size()) /
           phase_result.wall_s;
  };
  const auto probe_ms = [](const PhaseResult& phase_result) {
    std::vector<double> ms;
    for (double s : phase_result.probe_latency_s) ms.push_back(s * 1e3);
    return ms;
  };

  if (!options.trace) {
    const PhaseResult one =
        phase(1, false, options.seconds * 0.5, false, "bench.submit_t1");
    const PhaseResult four = phase(kClients, true, options.seconds * 0.5,
                                   false, "bench.submit_t4");
    const auto submit_ms = latencies(four);
    values["latency_t1_ms"] = quantile(latencies(one), 0.5);
    values["peak_rss_mb"] = peak_rss_mib();
    values["setup_s"] = setup_s;
    result.note("submit_p50_ms", quantile(submit_ms, 0.5), "ms");
    result.note("submit_p90_ms", quantile(submit_ms, 0.9), "ms");
    result.note("submit_samples", static_cast<double>(submit_ms.size()),
                "count");
    result.note("single_client_submits_per_s", rate(one), "1/s");
    result.note("submits_per_s", rate(four), "1/s");
    result.note("healthz_p90_ms", quantile(probe_ms(four), 0.9), "ms");
    result.note("healthz_samples",
                static_cast<double>(four.probe_latency_s.size()), "count");
    result.note("prober_max_lateness_ms", four.max_probe_lateness_s * 1e3,
                "ms");
    result.note("single_client_submit_p50_ms", quantile(latencies(one), 0.5),
                "ms");
    result.note("plan_items", static_cast<double>(plan.size()), "count");
    result.note("plan_used", static_cast<double>(std::min(cursor.load(),
                                                          plan.size())),
                "count");
    return true;
  }

  // Each traced phase runs next to its untraced twin, so drift of the
  // machine between phases stays out of the tracing overhead.
  const double s = options.seconds;
  const PhaseResult u1 = phase(1, false, s * 0.15, false, "bench.submit_t1");
  const PhaseResult t1 = phase(1, false, s * 0.15, true, "bench.submit_t1");
  const PhaseResult t4 =
      phase(kClients, true, s * 0.25, true, "bench.submit_t4");
  const PhaseResult u4 =
      phase(kClients, true, s * 0.25, false, "bench.submit_t4");

  // Decomposition: Daemon::submit_path on traces a fresh daemon's cache has
  // not seen, and write_file_atomic of the same bytes, as the daemon spools
  // each socket submission.
  const std::string atomic_dir = options.work_dir + "/atomic";
  if (!reset_dir(atomic_dir)) return false;
  dist::DaemonOptions local_options;
  local_options.spool_dir = options.work_dir + "/local-spool";
  dist::Daemon local(std::move(local_options));
  const double decompose_until = now_s() + s * 0.2;
  std::size_t decomposed = 0;
  for (std::size_t i = 0; i < plan.size() && now_s() < decompose_until &&
                          decomposed < kDecomposedSubmits;
       ++i) {
    if (expected[i].kind != SubmitKind::kNew) continue;
    ++decomposed;
    std::ifstream in(plan[i].path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string contents = std::move(bytes).str();
    const std::uint64_t op = tracer.new_op();
    const Tracer::Scope root(&tracer, "bench.decompose", op);
    {
      const std::string target =
          atomic_dir + "/" +
          std::filesystem::path(plan[i].path).filename().string();
      const Tracer::Scope span(&tracer, "util.write_file_atomic", op);
      result.check(util::write_file_atomic(target, contents).ok(),
                   "write_file_atomic failed");
    }
    std::optional<util::Expected<dist::SubmitReply>> reply;
    {
      const Tracer::Scope span(&tracer, "dist.submit_path", op);
      reply.emplace(local.submit_path(plan[i].path));
    }
    const std::string problem =
        reply->has_value() ? check_reply(**reply, expected[i])
                           : reply->error().to_string();
    result.check(problem.empty(), "submit_path: " + problem);
  }

  const std::vector<Span> spans = tracer.spans();
  const double submit_path_ms =
      quantile(durations_ms(spans, "dist.submit_path"), 0.5);
  const double traced_p50 =
      quantile(durations_ms(spans, "dist.submit_trace_file",
                            "bench.submit_t4"),
               0.5);
  const auto submissions = static_cast<double>(
      t1.after.submissions - t1.before.submissions + t4.after.submissions -
      t4.before.submissions);
  const auto hits = static_cast<double>(t1.after.cache_hits -
                                        t1.before.cache_hits +
                                        t4.after.cache_hits -
                                        t4.before.cache_hits);
  values["dist.submit_path_ms"] = submit_path_ms;
  values["dist.transport_ms"] = traced_p50 - submit_path_ms;
  values["dist.cache_hit_share"] = submissions > 0 ? hits / submissions : 0.0;
  values["util.write_atomic_ms"] =
      quantile(durations_ms(spans, "util.write_file_atomic"), 0.5);
  values["obs.healthz_p90_ms"] = quantile(probe_ms(t4), 0.9);
  values["parallel.speedup.t4"] = rate(u4) / rate(u1);
  values["parallel.throughput_t1"] = rate(u1);
  values["parallel.throughput_t4"] = rate(u4);
  values["obs.trace_overhead_share"] =
      overhead_share({latencies(u1), latencies(u4)},
                     {latencies(t1), latencies(t4)});
  values["trace.coverage"] = coverage(spans, "bench.submit_t1");
  // Each layer per operation of the kind that calls it: a single-client
  // submit, an in-process spool-and-submit, a health probe.
  fill_self_times(tracer, "bench.submit_t1", values);
  fill_self_times(tracer, "bench.decompose", values, "util");
  fill_self_times(tracer, "bench.probe", values, "obs");
  result.note("submit_p50_ms_traced", traced_p50, "ms");
  result.note("submit_samples_traced",
              static_cast<double>(t4.samples.size()), "count");
  result.note("coverage_decomposed", coverage(spans, "bench.decompose"),
              "ratio");
  return tracer.write(options.spans_path);
}

}  // namespace e2e
