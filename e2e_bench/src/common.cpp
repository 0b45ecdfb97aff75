#include "common.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "util/memory.hpp"

namespace e2e {

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double overhead_share(const std::vector<std::vector<double>>& untraced,
                      const std::vector<std::vector<double>>& traced) {
  double base = 0.0;
  double with_spans = 0.0;
  for (std::size_t arm = 0; arm < untraced.size() && arm < traced.size();
       ++arm) {
    base += median(untraced[arm]);
    with_spans += median(traced[arm]);
  }
  return base > 0.0 ? with_spans / base - 1.0 : 0.0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  return static_cast<double>(mosaic::util::peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

double current_rss_mib() {
  return static_cast<double>(mosaic::util::current_rss_bytes()) /
         (1024.0 * 1024.0);
}

void reset_peak_rss() {
  ::malloc_trim(0);
  // Writing "5" to clear_refs resets VmHWM to the current resident set.
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  bool reset = file != nullptr && std::fputs("5", file) >= 0;
  if (file != nullptr && std::fclose(file) != 0) reset = false;
  if (!reset) {
    std::fprintf(stderr,
                 "warning: cannot reset the peak resident set; peak_rss_mb "
                 "includes set-up\n");
  }
}

namespace {

/// Shortest decimal that reads back as the same double.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, value, unit});
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  // The first few failures say what went wrong; the rest only count.
  if (reported_failures_ < 20) {
    ++reported_failures_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return false;
}

void Result::print() const {
  const double failed_share =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  for (const Entry& entry : notes_) {
    std::printf("%-15s %-34s %14.6g %s\n", workload_.c_str(),
                entry.name.c_str(), entry.value, entry.unit.c_str());
  }
  std::printf("%-15s %-34s %14.6g %s  (%zu failed of %zu attempted)\n",
              workload_.c_str(), "failed_share", failed_share, "ratio",
              failed_, attempted_);
  for (const Entry& entry : metrics_) {
    std::printf("%-15s %-34s %14.6g %s\n", workload_.c_str(),
                entry.name.c_str(), entry.value, entry.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics_[i].name + "\": {\"value\": " +
            number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double run_in_child(const std::function<bool()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  const double start = now_s();
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    bool ok = false;
    try {
      ok = body();
    } catch (...) {
      ok = false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1.0;
  }
  const double elapsed = now_s() - start;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? elapsed : -1.0;
}

double repeated_child_setup(const std::string& dir,
                            const std::function<bool()>& setup, int repeats) {
  std::vector<double> walls;
  if (!reset_dir(dir)) return -1.0;
  for (int i = 0; i < repeats; ++i) {
    if (!flush_to_disk(dir)) return -1.0;
    const double wall = run_in_child(setup);
    if (wall < 0.0) return -1.0;
    walls.push_back(wall);
  }
  return flush_to_disk(dir) ? median(walls) : -1.0;
}

bool write_file(const std::string& path, std::string_view bytes) {
  // No O_TRUNC: a file that already holds these bytes is overwritten in
  // place, without freeing and reallocating its blocks.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool written = true;
  for (std::size_t done = 0; written && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    written = n > 0;
    if (written) done += static_cast<std::size_t>(n);
  }
  written = written && ::ftruncate(fd, static_cast<off_t>(bytes.size())) == 0;
  return ::close(fd) == 0 && written;
}

bool write_file(const std::string& path, const std::vector<std::byte>& bytes) {
  return write_file(path, std::string_view(
                              reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()));
}

bool flush_to_disk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::syncfs(fd) == 0;
  return ::close(fd) == 0 && synced;
}

bool reset_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

std::vector<std::vector<double>> timed_rounds(
    std::size_t arms, double seconds, std::size_t min_rounds,
    const std::function<double(std::size_t arm)>& body) {
  std::vector<std::vector<double>> samples(arms);
  std::vector<double> spent(arms, 0.0);
  const double deadline = now_s() + seconds;
  const auto short_of_rounds = [&] {
    return std::any_of(samples.begin(), samples.end(), [&](const auto& s) {
      return s.size() < min_rounds;
    });
  };
  while (short_of_rounds() || now_s() < deadline) {
    const std::size_t arm = static_cast<std::size_t>(
        std::min_element(spent.begin(), spent.end()) - spent.begin());
    const double elapsed = body(arm);
    samples[arm].push_back(elapsed);
    spent[arm] += elapsed;
  }
  return samples;
}

}  // namespace e2e
