// The benchmark's own tracing: spans recorded around each call into a
// layer's public functions, kept in memory and written out when the run
// ends. Nothing inside the library is instrumented; a span covers exactly
// one call as seen from the caller.
//
// A span's name is "<layer>.<call>"; the layer is the repository module the
// call belongs to (darshan, ingest, core, report, dist, util, obs), or
// "bench" for the root span of one operation (a timed pass, one submit, one
// probe). Every span carries the id of the operation it belongs to and the
// id of the span open around it on the same thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< operation (pass, submit, probe) id
  const char* name = "";     ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
  [[nodiscard]] std::string layer() const {
    const std::string_view full(name);
    return std::string(full.substr(0, full.find('.')));
  }
};

/// In-memory span store shared by every thread of the run.
class Tracer {
 public:
  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes it a no-op, which is how untraced passes run the same
  /// code without reading the clock.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// A fresh operation id.
  [[nodiscard]] std::uint64_t new_op();

  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes every span as Chrome trace_event JSON ("X" events; args carry
  /// the span, parent and operation ids). Returns false on a write error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  void record(Span span);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_op_{1};
};

/// Durations (ms) of the spans called `name`, within the operations whose
/// root span is named `root` (every operation when `root` is empty).
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               const std::string& name,
                                               const std::string& root = {});

/// Self time of each layer in ms: a span's duration minus the time its
/// child spans cover, summed by layer, over the operations whose root span
/// is named `root` (every operation when `root` is empty).
[[nodiscard]] std::map<std::string, double> self_ms_by_layer(
    const std::vector<Span>& spans, const std::string& root = {});

/// Share of the root spans' wall time covered by their direct children:
/// how much of each timed operation the layer spans account for.
[[nodiscard]] double coverage(const std::vector<Span>& spans,
                              const std::string& root = {});

/// Number of root spans (operations) called `root`.
[[nodiscard]] std::size_t count_roots(const std::vector<Span>& spans,
                                      const std::string& root);

}  // namespace e2e
