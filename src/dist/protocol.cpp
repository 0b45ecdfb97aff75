#include "dist/protocol.hpp"

#include <array>
#include <cstring>

#include "core/config.hpp"
#include "darshan/binary_format.hpp"
#include "json/json.hpp"
#include "obs/span.hpp"

namespace mosaic::dist {

using json::Array;
using json::Object;
using json::Value;
using util::Error;
using util::ErrorCode;
using util::Expected;
using util::Status;

namespace {

constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 2 + 4 + 8;

void store_u32(unsigned char* out, std::uint32_t value) noexcept {
  out[0] = static_cast<unsigned char>(value & 0xFF);
  out[1] = static_cast<unsigned char>((value >> 8) & 0xFF);
  out[2] = static_cast<unsigned char>((value >> 16) & 0xFF);
  out[3] = static_cast<unsigned char>((value >> 24) & 0xFF);
}

void store_u64(unsigned char* out, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint32_t load_u32(const unsigned char* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t load_u64(const unsigned char* in) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

std::uint64_t payload_checksum(std::string_view payload) noexcept {
  return darshan::fnv1a(payload);
}

Error proto_error(std::string what) {
  return Error{ErrorCode::kParseError, "protocol: " + std::move(what)};
}

}  // namespace

bool frame_type_valid(std::uint8_t value) noexcept {
  return value >= static_cast<std::uint8_t>(FrameType::kHello) &&
         value <= static_cast<std::uint8_t>(FrameType::kSubmitResult);
}

Status write_frame(Connection& conn, FrameType type, std::string_view payload,
                   bool corrupt_payload_byte) {
  if (payload.size() > kMaxPayloadBytes) {
    return proto_error("payload of " + std::to_string(payload.size()) +
                       " bytes exceeds the frame cap");
  }
  unsigned char header[kHeaderBytes];
  store_u32(header, kProtocolMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(type);
  header[6] = 0;
  header[7] = 0;
  store_u32(header + 8, static_cast<std::uint32_t>(payload.size()));
  store_u64(header + 12, payload_checksum(payload));
  const std::string_view head(reinterpret_cast<const char*>(header),
                              sizeof header);
  if (!corrupt_payload_byte || payload.empty()) {
    const std::array<std::string_view, 2> frame{head, payload};
    return conn.send_all(frame);
  }
  // Fault-injection seam: the checksum above covered the true payload;
  // sending its middle byte flipped guarantees the receiver detects the
  // corruption.
  const std::size_t middle = payload.size() / 2;
  const char flipped = static_cast<char>(payload[middle] ^ 0x20);
  const std::array<std::string_view, 4> frame{
      head, payload.substr(0, middle), std::string_view(&flipped, 1),
      payload.substr(middle + 1)};
  return conn.send_all(frame);
}

Expected<Frame> read_frame(Connection& conn, double timeout_seconds) {
  unsigned char header[kHeaderBytes];
  if (const auto status = conn.recv_exact(header, sizeof header,
                                          timeout_seconds);
      !status.ok()) {
    return status.error();
  }
  if (load_u32(header) != kProtocolMagic) {
    return proto_error("bad magic (not a mosaic dispatch stream)");
  }
  if (header[4] != kProtocolVersion) {
    return proto_error("unsupported protocol version " +
                       std::to_string(header[4]));
  }
  if (!frame_type_valid(header[5])) {
    return proto_error("unknown frame type " + std::to_string(header[5]));
  }
  const std::uint32_t length = load_u32(header + 8);
  if (length > kMaxPayloadBytes) {
    return proto_error("frame advertises " + std::to_string(length) +
                       " payload bytes (cap " +
                       std::to_string(kMaxPayloadBytes) + ")");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[5]);
  frame.payload.resize(length);
  if (length > 0) {
    if (const auto status =
            conn.recv_exact(frame.payload.data(), length, timeout_seconds);
        !status.ok()) {
      return status.error();
    }
  }
  // Checksum last: the payload has been consumed either way, so a mismatch
  // leaves the stream framed and the caller free to re-request.
  if (payload_checksum(frame.payload) != load_u64(header + 12)) {
    return proto_error("payload checksum mismatch (corrupt frame)");
  }
  return frame;
}

std::string task_request_to_payload(const TaskRequest& task) {
  Object out;
  Object shard;
  shard.set("index", task.shard.index);
  shard.set("count", task.shard.count);
  out.set("shard", std::move(shard));
  out.set("attempt", task.attempt);
  Array paths;
  paths.reserve(task.paths.size());
  for (const std::string& path : task.paths) paths.push_back(path);
  out.set("paths", std::move(paths));
  out.set("max_retries", task.max_retries);
  out.set("file_deadline_seconds", task.file_deadline_seconds);
  out.set("thresholds", core::thresholds_to_json(task.thresholds));
  // Optional telemetry opt-ins: omitted when off, so payloads sent to (and
  // parsed by) pre-federation peers are unchanged byte for byte.
  if (task.telemetry) out.set("telemetry", true);
  if (task.collect_spans) out.set("collect_spans", true);
  return json::serialize(Value(std::move(out)));
}

Expected<TaskRequest> task_request_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value()) {
    return proto_error("task payload: " + parsed.error().message);
  }
  if (!parsed->is_object()) return proto_error("task payload: not an object");
  const Object& obj = parsed->as_object();

  TaskRequest task;
  const Value* shard = obj.find("shard");
  if (shard == nullptr || !shard->is_object()) {
    return proto_error("task payload: missing object 'shard'");
  }
  const Value* index = shard->as_object().find("index");
  const Value* count = shard->as_object().find("count");
  if (index == nullptr || !index->is_number() || count == nullptr ||
      !count->is_number()) {
    return proto_error("task payload: shard index/count not numeric");
  }
  task.shard.index = static_cast<std::size_t>(index->as_number());
  task.shard.count = static_cast<std::size_t>(count->as_number());
  if (task.shard.count == 0 || task.shard.index >= task.shard.count) {
    return proto_error("task payload: shard index out of range");
  }
  const Value* attempt = obj.find("attempt");
  if (attempt == nullptr || !attempt->is_number()) {
    return proto_error("task payload: missing number 'attempt'");
  }
  task.attempt = static_cast<std::size_t>(attempt->as_number());
  const Value* paths = obj.find("paths");
  if (paths == nullptr || !paths->is_array()) {
    return proto_error("task payload: missing array 'paths'");
  }
  task.paths.reserve(paths->as_array().size());
  for (const Value& member : paths->as_array()) {
    if (!member.is_string()) {
      return proto_error("task payload: non-string path");
    }
    task.paths.push_back(member.as_string());
  }
  const Value* retries = obj.find("max_retries");
  if (retries == nullptr || !retries->is_number()) {
    return proto_error("task payload: missing number 'max_retries'");
  }
  task.max_retries = static_cast<int>(retries->as_number());
  const Value* deadline = obj.find("file_deadline_seconds");
  if (deadline == nullptr || !deadline->is_number()) {
    return proto_error("task payload: missing number 'file_deadline_seconds'");
  }
  task.file_deadline_seconds = deadline->as_number();
  const Value* thresholds = obj.find("thresholds");
  if (thresholds == nullptr) {
    return proto_error("task payload: missing 'thresholds'");
  }
  auto parsed_thresholds = core::thresholds_from_json(*thresholds);
  if (!parsed_thresholds.has_value()) {
    return proto_error("task payload thresholds: " +
                       parsed_thresholds.error().message);
  }
  task.thresholds = *parsed_thresholds;
  const Value* telemetry = obj.find("telemetry");
  task.telemetry = telemetry != nullptr && telemetry->is_bool() &&
                   telemetry->as_bool();
  const Value* collect_spans = obj.find("collect_spans");
  task.collect_spans = collect_spans != nullptr && collect_spans->is_bool() &&
                       collect_spans->as_bool();
  return task;
}

std::string task_error_to_payload(const Error& error) {
  Object out;
  out.set("code", std::string(util::error_code_name(error.code)));
  out.set("message", error.message);
  return json::serialize(Value(std::move(out)));
}

Error task_error_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) {
    return Error{ErrorCode::kParseError,
                 "task-error payload is not a JSON object"};
  }
  const Object& obj = parsed->as_object();
  const Value* code = obj.find("code");
  const Value* message = obj.find("message");
  if (code == nullptr || !code->is_string() || message == nullptr ||
      !message->is_string()) {
    return Error{ErrorCode::kParseError,
                 "task-error payload missing code/message"};
  }
  Error error;
  error.code = ErrorCode::kInternal;
  for (std::size_t i = 0; i < util::kErrorCodeCount; ++i) {
    const auto candidate = static_cast<ErrorCode>(i);
    if (util::error_code_name(candidate) == code->as_string()) {
      error.code = candidate;
      break;
    }
  }
  error.message = message->as_string();
  return error;
}

std::string hello_payload() {
  Object out;
  out.set("protocol", std::string("mosaic-dispatch-v1"));
  // Span clock at send time; check_hello_payload ignores it, so peers that
  // predate telemetry federation interoperate unchanged.
  out.set("now_ns", obs::SpanTracer::now_ns());
  return json::serialize(Value(std::move(out)));
}

Status check_hello_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) {
    return proto_error("hello payload is not a JSON object");
  }
  const Value* protocol = parsed->as_object().find("protocol");
  if (protocol == nullptr || !protocol->is_string() ||
      protocol->as_string() != "mosaic-dispatch-v1") {
    return proto_error("peer speaks a different protocol");
  }
  return Status::success();
}

std::optional<std::uint64_t> hello_now_ns(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) return std::nullopt;
  const Value* now = parsed->as_object().find("now_ns");
  if (now == nullptr || !now->is_number() || now->as_number() < 0.0) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(now->as_number());
}

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

std::string to_hex(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kHexDigits[byte >> 4];
    out += kHexDigits[byte & 0x0F];
  }
  return out;
}

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

Expected<std::string> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return proto_error("submit payload: odd-length hex data");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return proto_error("submit payload: non-hex byte in data");
    }
    out += static_cast<char>((hi << 4) | lo);
  }
  return out;
}

}  // namespace

std::string submit_request_to_payload(const SubmitRequest& request) {
  Object out;
  out.set("name", request.name);
  out.set("hex", to_hex(request.data));
  return json::serialize(Value(std::move(out)));
}

Expected<SubmitRequest> submit_request_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) {
    return proto_error("submit payload is not a JSON object");
  }
  const Object& obj = parsed->as_object();
  const Value* name = obj.find("name");
  const Value* hex = obj.find("hex");
  if (name == nullptr || !name->is_string() || hex == nullptr ||
      !hex->is_string()) {
    return proto_error("submit payload missing string 'name'/'hex'");
  }
  auto data = from_hex(hex->as_string());
  if (!data.has_value()) return std::move(data).error();
  SubmitRequest request;
  request.name = name->as_string();
  request.data = std::move(*data);
  return request;
}

std::string submit_reply_to_payload(const SubmitReply& reply) {
  Object out;
  out.set("ok", reply.ok);
  if (reply.ok) {
    out.set("trace_id", reply.trace_id);
    out.set("app_key", reply.app_key);
    out.set("cached", reply.cached);
    Array categories;
    for (const std::string& category : reply.categories) {
      categories.push_back(category);
    }
    out.set("categories", std::move(categories));
  } else {
    out.set("error", reply.error);
  }
  return json::serialize(Value(std::move(out)));
}

Expected<SubmitReply> submit_reply_from_payload(std::string_view payload) {
  auto parsed = json::parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) {
    return proto_error("submit reply is not a JSON object");
  }
  const Object& obj = parsed->as_object();
  const Value* ok = obj.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return proto_error("submit reply missing bool 'ok'");
  }
  SubmitReply reply;
  reply.ok = ok->as_bool();
  if (!reply.ok) {
    const Value* error = obj.find("error");
    if (error == nullptr || !error->is_string()) {
      return proto_error("submit reply missing string 'error'");
    }
    reply.error = error->as_string();
    return reply;
  }
  const Value* trace_id = obj.find("trace_id");
  const Value* app_key = obj.find("app_key");
  const Value* cached = obj.find("cached");
  const Value* categories = obj.find("categories");
  if (trace_id == nullptr || !trace_id->is_string() || app_key == nullptr ||
      !app_key->is_string() || cached == nullptr || !cached->is_bool() ||
      categories == nullptr || !categories->is_array()) {
    return proto_error("submit reply missing trace_id/app_key/cached/"
                       "categories");
  }
  reply.trace_id = trace_id->as_string();
  reply.app_key = app_key->as_string();
  reply.cached = cached->as_bool();
  for (const Value& member : categories->as_array()) {
    if (!member.is_string()) {
      return proto_error("submit reply: non-string category");
    }
    reply.categories.push_back(member.as_string());
  }
  return reply;
}

}  // namespace mosaic::dist
