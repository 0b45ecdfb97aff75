// Shared pieces of the end-to-end benchmark: command-line options, order
// statistics, the result sink that prints metrics and counts failed checks,
// and the forked set-up runner.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Input sizes. `full` is what the benchmark measures; `tiny` exists for the
/// smoke test, which only needs every code path and metric to run.
enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Scratch directory for the corpus and the daemon spool; created and
  /// removed by the caller.
  std::string work_dir;
  /// Where a traced run writes its spans (Chrome trace_event JSON).
  std::string spans_path;
};

/// Worker threads of the "t4" arm (metric suffix `_t4`).
inline constexpr std::size_t kThreads = 4;

/// Order statistics over a sample (copies, so callers keep their order).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double sum(const std::vector<double>& values);

/// Tracing overhead: the sum over arms of the traced samples' medians over
/// the untraced ones', minus 1.
[[nodiscard]] double overhead_share(
    const std::vector<std::vector<double>>& untraced,
    const std::vector<std::vector<double>>& traced);

/// Seconds on the monotonic clock since an arbitrary epoch.
[[nodiscard]] double now_s();
/// Process CPU time (user + system) in seconds, all threads.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();
/// Current resident set of this process in MiB (VmRSS).
[[nodiscard]] double current_rss_mib();
/// Returns freed heap memory to the system and resets the peak resident set
/// to the current one, so that peak_rss_mib() covers only what runs after
/// set-up. Warns on stderr when the kernel refuses the reset.
void reset_peak_rss();

/// Collects the run's outcome: metrics for the final JSON line, derived
/// values for the human-readable report, and the pass/fail tally of every
/// output check.
class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  /// A metric of the JSON line (a name from BENCHMARK.json).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A value printed beside the metrics under a workload-specific name
  /// (files_per_s_t1, submit_p50_ms, ...), but not part of the JSON line.
  void note(const std::string& name, double value, const std::string& unit);
  /// One checked operation: a verified output, or an operation that can
  /// only fail (a transport error, a non-200 probe). Returns `ok`; a failure
  /// is printed to stderr.
  bool check(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

  /// Prints the human-readable metric lines and then the JSON result line,
  /// which is the last line of standard output.
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t reported_failures_ = 0;
};

/// Runs `body` in a forked child process and returns its wall time in
/// seconds, or a negative value when the child failed. Used for set-up work
/// that must not count toward the measuring process's peak memory: the
/// child generates the corpus and exits, the parent only reads files.
/// Call only while the process has a single thread.
[[nodiscard]] double run_in_child(const std::function<bool()>& body);

/// Runs `setup` `repeats` times in forked children and returns the median
/// wall time, or a negative value when any repetition failed. `dir` is
/// emptied once, untimed, so the first repetition creates the input files
/// and later ones write the same bytes over them in place: on the shared
/// disk the benchmark was tuned on, creating the same 1,500 files took
/// anywhere from 0.05 to 0.9 s from one minute to the next, and the median
/// is meant to time generating and writing the inputs rather than that.
/// The filesystem is flushed, untimed, before each repetition and after the
/// last, so that writeback that outlived a repetition lands in neither the
/// next one nor the timed passes.
[[nodiscard]] double repeated_child_setup(const std::string& dir,
                                          const std::function<bool()>& setup,
                                          int repeats);

/// How many times each run repeats its set-up to report a median, which
/// keeps a single slow repetition out of `setup_s`.
inline constexpr int kSetupRepeats = 5;

/// Removes and recreates `dir`.
[[nodiscard]] bool reset_dir(const std::string& dir);

/// Writes a set-up input file. Inputs need no durability, so unlike the
/// library's write_file_atomic this does not fsync, which keeps the cost of
/// set-up steady.
[[nodiscard]] bool write_file(const std::string& path, std::string_view bytes);
[[nodiscard]] bool write_file(const std::string& path,
                              const std::vector<std::byte>& bytes);

/// Flushes the filesystem holding `dir` (syncfs).
[[nodiscard]] bool flush_to_disk(const std::string& dir);

/// Calls `body` on the arms, always next on the arm with the least time
/// measured so far, until `seconds` have elapsed and every arm has run at
/// least `min_rounds` times. `body` returns the seconds its timed part took
/// (output checks stay outside it); the result holds each arm's samples.
/// Interleaving keeps slow drift of the machine out of the comparison
/// between arms, and balancing time gives a fast arm as many seconds of
/// samples as a slow one.
[[nodiscard]] std::vector<std::vector<double>> timed_rounds(
    std::size_t arms, double seconds, std::size_t min_rounds,
    const std::function<double(std::size_t arm)>& body);

}  // namespace e2e
