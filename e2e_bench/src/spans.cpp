#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace e2e {

namespace {

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open.empty() ? 0 : t_open.back();
  span_.op = op;
  span_.name = name;
  span_.thread = thread_number();
  t_open.push_back(span_.id);
  span_.start_ns = clock_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = clock_ns();
  t_open.pop_back();
  tracer_->record(std::move(span_));
}

std::uint64_t Tracer::new_op() {
  return next_op_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(Span span) {
  const std::scoped_lock lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::int64_t origin = 0;
  for (const Span& span : all) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    std::fprintf(
        file,
        "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"op\": %llu}}\n",
        i == 0 ? "" : ",", span.name, span.layer().c_str(),
        span.thread, static_cast<double>(span.start_ns - origin) * 1e-3,
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.op));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

namespace {

/// Time (ns) that the direct children of each span cover. Children are
/// called synchronously from their parent's thread, so they never overlap.
std::unordered_map<std::uint64_t, std::int64_t> child_ns(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> covered;
  for (const Span& span : spans) {
    if (span.parent != 0) covered[span.parent] += span.end_ns - span.start_ns;
  }
  return covered;
}

/// Operations whose root span is named `root` (all when empty).
std::unordered_map<std::uint64_t, bool> selected_ops(
    const std::vector<Span>& spans, const std::string& root) {
  std::unordered_map<std::uint64_t, bool> ops;
  for (const Span& span : spans) {
    if (span.parent == 0 && (root.empty() || span.name == root)) {
      ops[span.op] = true;
    }
  }
  return ops;
}

}  // namespace

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name,
                                 const std::string& root) {
  const auto ops = selected_ops(spans, root);
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name && ops.contains(span.op)) out.push_back(span.ms());
  }
  return out;
}

std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans,
                                               const std::string& root) {
  const auto covered = child_ns(spans);
  const auto ops = selected_ops(spans, root);
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    if (!ops.contains(span.op)) continue;
    std::int64_t own = span.end_ns - span.start_ns;
    if (const auto it = covered.find(span.id); it != covered.end()) {
      own -= std::min(own, it->second);
    }
    self[span.layer()] += static_cast<double>(own) * 1e-6;
  }
  return self;
}

double coverage(const std::vector<Span>& spans, const std::string& root) {
  const auto covered = child_ns(spans);
  double wall = 0.0;
  double inside = 0.0;
  for (const Span& span : spans) {
    if (span.parent != 0 || (!root.empty() && span.name != root)) continue;
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    wall += duration;
    if (const auto it = covered.find(span.id); it != covered.end()) {
      inside += std::min(duration, static_cast<double>(it->second));
    }
  }
  return wall > 0.0 ? inside / wall : 0.0;
}

std::size_t count_roots(const std::vector<Span>& spans,
                        const std::string& root) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const Span& span) {
        return span.parent == 0 && span.name == root;
      }));
}

}  // namespace e2e
