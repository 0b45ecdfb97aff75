#include "darshan/text_format.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/fs.hpp"
#include "util/mmap.hpp"
#include "util/strings.hpp"

namespace mosaic::darshan {

using trace::FileRecord;
using trace::Trace;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

/// The three instrumented APIs the paper names. darshan-parser spells the
/// MPI-IO module "MPI-IO"; "MPIIO" is accepted as the same module.
enum class Module : std::uint8_t { kPosix, kMpiio, kStdio };

std::optional<Module> module_of(std::string_view name) noexcept {
  if (name == "POSIX") return Module::kPosix;
  if (name == "MPI-IO" || name == "MPIIO") return Module::kMpiio;
  if (name == "STDIO") return Module::kStdio;
  return std::nullopt;  // LUSTRE, HEATMAP, ... are out of scope
}

/// Counter slots the parser understands, applied to a FileRecord.
enum class Counter {
  kOpens,
  kCloses,
  kSeeks,
  kReads,
  kWrites,
  kBytesRead,
  kBytesWritten,
  kOpenStart,
  kCloseEnd,
  kReadStart,
  kReadEnd,
  kWriteStart,
  kWriteEnd,
};

/// Counter descriptor: additive counters accumulate (MPI-IO splits its call
/// counts into independent + collective rows).
struct CounterSpec {
  Counter counter;
  bool additive = false;
};

/// Understood counters across the POSIX, MPI-IO and STDIO modules. A row's
/// counter is looked up by name alone, whatever its module column says.
/// Unknown counters are skipped.
constexpr std::pair<std::string_view, CounterSpec> kCounters[] = {
    // POSIX.
    {"POSIX_OPENS", {Counter::kOpens}},
    {"POSIX_CLOSES", {Counter::kCloses}},  // emitted by us; absent upstream
    {"POSIX_SEEKS", {Counter::kSeeks}},
    {"POSIX_READS", {Counter::kReads}},
    {"POSIX_WRITES", {Counter::kWrites}},
    {"POSIX_BYTES_READ", {Counter::kBytesRead}},
    {"POSIX_BYTES_WRITTEN", {Counter::kBytesWritten}},
    {"POSIX_F_OPEN_START_TIMESTAMP", {Counter::kOpenStart}},
    {"POSIX_F_CLOSE_END_TIMESTAMP", {Counter::kCloseEnd}},
    {"POSIX_F_READ_START_TIMESTAMP", {Counter::kReadStart}},
    {"POSIX_F_READ_END_TIMESTAMP", {Counter::kReadEnd}},
    {"POSIX_F_WRITE_START_TIMESTAMP", {Counter::kWriteStart}},
    {"POSIX_F_WRITE_END_TIMESTAMP", {Counter::kWriteEnd}},
    // MPI-IO: independent and collective call counts accumulate.
    {"MPIIO_INDEP_OPENS", {Counter::kOpens, true}},
    {"MPIIO_COLL_OPENS", {Counter::kOpens, true}},
    {"MPIIO_INDEP_READS", {Counter::kReads, true}},
    {"MPIIO_COLL_READS", {Counter::kReads, true}},
    {"MPIIO_INDEP_WRITES", {Counter::kWrites, true}},
    {"MPIIO_COLL_WRITES", {Counter::kWrites, true}},
    {"MPIIO_BYTES_READ", {Counter::kBytesRead}},
    {"MPIIO_BYTES_WRITTEN", {Counter::kBytesWritten}},
    {"MPIIO_F_OPEN_START_TIMESTAMP", {Counter::kOpenStart}},
    {"MPIIO_F_CLOSE_END_TIMESTAMP", {Counter::kCloseEnd}},
    {"MPIIO_F_READ_START_TIMESTAMP", {Counter::kReadStart}},
    {"MPIIO_F_READ_END_TIMESTAMP", {Counter::kReadEnd}},
    {"MPIIO_F_WRITE_START_TIMESTAMP", {Counter::kWriteStart}},
    {"MPIIO_F_WRITE_END_TIMESTAMP", {Counter::kWriteEnd}},
    // STDIO.
    {"STDIO_OPENS", {Counter::kOpens}},
    {"STDIO_SEEKS", {Counter::kSeeks}},
    {"STDIO_READS", {Counter::kReads}},
    {"STDIO_WRITES", {Counter::kWrites}},
    {"STDIO_BYTES_READ", {Counter::kBytesRead}},
    {"STDIO_BYTES_WRITTEN", {Counter::kBytesWritten}},
    {"STDIO_F_OPEN_START_TIMESTAMP", {Counter::kOpenStart}},
    {"STDIO_F_CLOSE_END_TIMESTAMP", {Counter::kCloseEnd}},
    {"STDIO_F_READ_START_TIMESTAMP", {Counter::kReadStart}},
    {"STDIO_F_READ_END_TIMESTAMP", {Counter::kReadEnd}},
    {"STDIO_F_WRITE_START_TIMESTAMP", {Counter::kWriteStart}},
    {"STDIO_F_WRITE_END_TIMESTAMP", {Counter::kWriteEnd}},
};

/// Records are keyed by (module, record id, rank): darshan emits one row per
/// counter, and the same file appears once per instrumented API layer.
struct RecordKey {
  std::uint64_t id = 0;
  std::int32_t rank = 0;
  Module module = Module::kPosix;
  bool operator==(const RecordKey&) const = default;
};

struct RecordKeyHash {
  std::size_t operator()(const RecordKey& key) const noexcept {
    const std::uint64_t rank_module =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.rank)) << 8 |
        static_cast<std::uint64_t>(key.module);
    return std::hash<std::uint64_t>{}(key.id ^
                                      rank_module * 0x9E3779B97F4A7C15ull);
  }
};

/// Applies one counter row. Counts arrive as doubles; a count that is not
/// finite or does not fit in 64 bits has no meaning as a count (and casting
/// it is undefined behaviour), so it fails the row. Negative counts clamp to
/// 0. Timestamps are stored as given.
[[nodiscard]] bool apply_counter(FileRecord& record, const CounterSpec& spec,
                                 double value) {
  const auto set_count = [&](std::uint64_t& member) {
    if (!std::isfinite(value) || value >= 0x1p64) return false;
    const std::uint64_t count =
        value < 0.0 ? 0 : static_cast<std::uint64_t>(value);
    member = spec.additive ? member + count : count;
    return true;
  };
  switch (spec.counter) {
    case Counter::kOpens: return set_count(record.opens);
    case Counter::kCloses: return set_count(record.closes);
    case Counter::kSeeks: return set_count(record.seeks);
    case Counter::kReads: return set_count(record.reads);
    case Counter::kWrites: return set_count(record.writes);
    case Counter::kBytesRead: return set_count(record.bytes_read);
    case Counter::kBytesWritten: return set_count(record.bytes_written);
    case Counter::kOpenStart: record.open_ts = value; break;
    case Counter::kCloseEnd: record.close_ts = value; break;
    case Counter::kReadStart: record.first_read_ts = value; break;
    case Counter::kReadEnd: record.last_read_ts = value; break;
    case Counter::kWriteStart: record.first_write_ts = value; break;
    case Counter::kWriteEnd: record.last_write_ts = value; break;
  }
  return true;
}

/// Parses a `# key: value` header line into the job metadata.
void apply_header(Trace& out, std::string_view key, std::string_view value) {
  using util::parse_double;
  using util::parse_uint;
  if (key == "exe") {
    // darshan records the full command line; the app name is argv[0]'s
    // basename, matching how the paper groups runs of "the same application".
    const auto fields = util::split_whitespace(value);
    if (!fields.empty()) {
      std::string_view exe = fields.front();
      if (const auto slash = exe.rfind('/'); slash != std::string_view::npos) {
        exe = exe.substr(slash + 1);
      }
      out.meta.app_name = std::string(exe);
    }
  } else if (key == "uid") {
    out.meta.user = std::string(value);
  } else if (key == "jobid") {
    if (const auto v = parse_uint(value)) out.meta.job_id = *v;
  } else if (key == "nprocs") {
    if (const auto v = parse_uint(value)) {
      out.meta.nprocs = static_cast<std::uint32_t>(*v);
    }
  } else if (key == "start_time") {
    if (const auto v = parse_double(value)) out.meta.start_time = *v;
  } else if (key == "run time" || key == "run_time") {
    if (const auto v = parse_double(value)) out.meta.run_time = *v;
  }
}

Error row_error(std::size_t line_number, std::string_view what) {
  return Error{ErrorCode::kParseError,
               "line " + std::to_string(line_number) + ": " + std::string(what)};
}

}  // namespace

Expected<Trace> parse_text(std::string_view text,
                           const util::Deadline& deadline) {
  // Clock reads are syscall-cheap but not free; amortize over a batch of
  // lines (a line is tens of bytes, so this bounds overrun to ~100KB of
  // parsing past expiry).
  constexpr std::size_t kDeadlineCheckInterval = 4096;
  // Only fields 0-5 are used (module .. file name); mount point and file
  // system type are not split off.
  constexpr std::size_t kMaxFields = 6;
  // Never destroyed, so a worker still parsing while the process exits
  // cannot see it torn down.
  static const auto& counters =
      *new std::unordered_map<std::string_view, CounterSpec>(
          std::begin(kCounters), std::end(kCounters));
  Trace out;
  // Consulted only when a row leaves the previous row's record.
  std::unordered_map<RecordKey, std::size_t, RecordKeyHash> record_index;
  // Module of each parsed record (same order as out.files).
  std::vector<Module> record_module;
  // darshan-parser writes a record's counters one after another, so nearly
  // every row belongs to the record the previous row touched. The pointer is
  // re-taken after every insertion, so growing out.files never leaves it
  // dangling.
  RecordKey last_key;
  FileRecord* last_record = nullptr;
  bool any_mpiio = false;

  const char* cursor = text.data();
  const char* const text_end = cursor + text.size();
  std::size_t line_number = 0;
  for (bool more = true; more;) {
    const auto* newline =
        cursor == text_end
            ? nullptr
            : static_cast<const char*>(std::memchr(
                  cursor, '\n', static_cast<std::size_t>(text_end - cursor)));
    more = newline != nullptr;
    const char* const eol = more ? newline : text_end;
    const char* c = cursor;
    cursor = more ? newline + 1 : text_end;
    ++line_number;
    if (line_number % kDeadlineCheckInterval == 0 && deadline.expired()) {
      return Error{ErrorCode::kTimeout,
                   "parse deadline exceeded at line " +
                       std::to_string(line_number)};
    }

    using util::is_space;
    while (c < eol && is_space(*c)) ++c;
    if (c == eol) continue;
    if (*c == '#') {
      const std::string_view body = util::trim(
          std::string_view(c + 1, static_cast<std::size_t>(eol - c - 1)));
      if (const auto colon = body.find(':'); colon != std::string_view::npos) {
        apply_header(out, util::trim(body.substr(0, colon)),
                     util::trim(body.substr(colon + 1)));
      }
      continue;
    }

    std::string_view fields[kMaxFields];
    std::size_t count = 0;
    while (c < eol && count < kMaxFields) {
      const char* start = c;
      while (c < eol && !is_space(*c)) ++c;
      fields[count++] = {start, static_cast<std::size_t>(c - start)};
      while (c < eol && is_space(*c)) ++c;
    }
    if (count < 5) {
      return row_error(line_number,
                       "expected >=5 fields, got " + std::to_string(count));
    }
    const std::optional<Module> module = module_of(fields[0]);
    if (!module) continue;

    const auto rank = util::parse_int(fields[1]);
    const auto record_id = util::parse_uint(fields[2]);
    const auto value = util::parse_double(fields[4]);
    if (!rank || !record_id || !value) {
      return row_error(line_number, "bad numeric field");
    }
    const auto spec = counters.find(fields[3]);
    if (spec == counters.end()) continue;  // tolerated counter

    const RecordKey key{*record_id, static_cast<std::int32_t>(*rank), *module};
    if (last_record == nullptr || key != last_key) {
      const auto [slot, inserted] =
          record_index.try_emplace(key, out.files.size());
      if (inserted) {
        FileRecord& added = out.files.emplace_back();
        added.file_id = key.id;
        added.rank = key.rank;
        if (count == kMaxFields) added.file_name = std::string(fields[5]);
        record_module.push_back(key.module);
        any_mpiio = any_mpiio || key.module == Module::kMpiio;
      }
      last_key = key;
      last_record = &out.files[slot->second];
    }
    if (!apply_counter(*last_record, spec->second, *value)) {
      return row_error(line_number, "bad numeric field");
    }
  }

  if (out.meta.run_time <= 0.0) {
    return Error{ErrorCode::kParseError, "missing or invalid 'run time' header"};
  }

  // A file accessed through MPI-IO is instrumented twice: once at the MPI-IO
  // layer and once at the POSIX layer underneath. Keeping both would double
  // count every byte, so the higher-level MPI-IO record wins and the aliased
  // POSIX record is dropped. STDIO targets distinct streams and stays.
  if (any_mpiio) {
    std::vector<FileRecord> kept;
    kept.reserve(out.files.size());
    for (std::size_t i = 0; i < out.files.size(); ++i) {
      if (record_module[i] == Module::kPosix &&
          record_index.contains({out.files[i].file_id, out.files[i].rank,
                                 Module::kMpiio})) {
        continue;
      }
      kept.push_back(std::move(out.files[i]));
    }
    out.files = std::move(kept);
  }

  // Upstream darshan has no CLOSE counter; a clean record closes as often as
  // it opens.
  for (auto& record : out.files) {
    if (record.closes == 0) record.closes = record.opens;
  }
  return out;
}

Expected<Trace> read_text_file(const std::string& path) {
  // Parsed straight from the mapped pages, as read_mbt_file does.
  auto mapped = util::MappedFile::open(path);
  if (!mapped.has_value()) return std::move(mapped).error();
  const auto bytes = mapped->bytes();
  return parse_text(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::string to_text(const Trace& trace) {
  std::string out;
  out.reserve(256 + trace.files.size() * 512);
  char line[512];

  std::snprintf(line, sizeof line, "# darshan log version: 3.41\n");
  out += line;
  std::snprintf(line, sizeof line, "# exe: /usr/bin/%s\n",
                trace.meta.app_name.c_str());
  out += line;
  std::snprintf(line, sizeof line, "# uid: %s\n", trace.meta.user.c_str());
  out += line;
  std::snprintf(line, sizeof line, "# jobid: %" PRIu64 "\n", trace.meta.job_id);
  out += line;
  std::snprintf(line, sizeof line, "# start_time: %.0f\n",
                trace.meta.start_time);
  out += line;
  std::snprintf(line, sizeof line, "# nprocs: %u\n", trace.meta.nprocs);
  out += line;
  std::snprintf(line, sizeof line, "# run time: %.6f\n", trace.meta.run_time);
  out += line;
  out += "\n# <module> <rank> <record id> <counter> <value> <file name>\n";

  const auto emit = [&](const FileRecord& record, const char* counter,
                        double value) {
    const char* name =
        record.file_name.empty() ? "<unknown>" : record.file_name.c_str();
    std::snprintf(line, sizeof line,
                  "POSIX\t%d\t%" PRIu64 "\t%s\t%.6f\t%s\n", record.rank,
                  record.file_id, counter, value, name);
    out += line;
  };

  for (const auto& record : trace.files) {
    emit(record, "POSIX_OPENS", static_cast<double>(record.opens));
    emit(record, "POSIX_CLOSES", static_cast<double>(record.closes));
    emit(record, "POSIX_SEEKS", static_cast<double>(record.seeks));
    emit(record, "POSIX_READS", static_cast<double>(record.reads));
    emit(record, "POSIX_WRITES", static_cast<double>(record.writes));
    emit(record, "POSIX_BYTES_READ", static_cast<double>(record.bytes_read));
    emit(record, "POSIX_BYTES_WRITTEN",
         static_cast<double>(record.bytes_written));
    emit(record, "POSIX_F_OPEN_START_TIMESTAMP", record.open_ts);
    emit(record, "POSIX_F_CLOSE_END_TIMESTAMP", record.close_ts);
    emit(record, "POSIX_F_READ_START_TIMESTAMP", record.first_read_ts);
    emit(record, "POSIX_F_READ_END_TIMESTAMP", record.last_read_ts);
    emit(record, "POSIX_F_WRITE_START_TIMESTAMP", record.first_write_ts);
    emit(record, "POSIX_F_WRITE_END_TIMESTAMP", record.last_write_ts);
  }
  return out;
}

Status write_text_file(const Trace& trace, const std::string& path) {
  // Staged + renamed so a killed writer never leaves a torn half-trace that
  // a later ingest would count as one more corrupted input.
  return util::write_file_atomic(path, to_text(trace));
}

}  // namespace mosaic::darshan
