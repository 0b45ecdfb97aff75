// In-process tests of the daemon's socket path (dist/daemon.hpp): a real
// dist::Daemon on ephemeral loopback ports, fed by dist::submit_trace_file
// the way `mosaic submit` is, with /explain read back over HTTP. Pins the
// submit round trip against the delayed-ACK stall, per-submission spool
// files, and /explain re-derivation that never serves a changed source.
#include "dist/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "darshan/binary_format.hpp"
#include "ingest/ingest.hpp"
#include "obs/provenance.hpp"
#include "sim/population.hpp"

namespace mosaic::dist {
namespace {

namespace fs = std::filesystem;

/// An HTTP status code and body.
struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply http_get(std::uint16_t port, const std::string& target) {
  HttpReply reply;
  auto conn = connect_to(Address{"127.0.0.1", port}, 5.0);
  if (!conn.has_value()) return reply;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (!conn->send_all(request.data(), request.size()).ok()) return reply;
  std::string response;
  char buffer[4096];
  for (;;) {
    auto got = conn->recv_some(buffer, sizeof buffer, 5.0);
    if (!got.has_value() || *got == 0) break;
    response.append(buffer, *got);
  }
  if (std::sscanf(response.c_str(), "HTTP/%*s %d", &reply.status) != 1) {
    return reply;
  }
  if (const auto split = response.find("\r\n\r\n");
      split != std::string::npos) {
    reply.body = response.substr(split + 4);
  }
  return reply;
}

/// What `mosaic explain <path> --json` prints for the file.
std::string live_explain(const std::string& path) {
  auto parsed = ingest::load_trace(path);
  EXPECT_TRUE(parsed.has_value());
  if (!parsed.has_value()) return "";
  obs::TraceProvenance evidence;
  (void)core::Analyzer().analyze(*parsed, &evidence);
  return obs::explain_json(evidence);
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("mosaic_daemon_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    sim::PopulationConfig config;
    config.target_traces = 12;
    config.corruption_fraction = 0.0;
    config.seed = 17;
    for (auto& entry : sim::generate_population(config).traces) {
      traces_.push_back(std::move(entry.trace));
    }
    ASSERT_GE(traces_.size(), 10u);
  }

  void TearDown() override {
    if (daemon_ != nullptr) {
      daemon_->request_stop();
      if (serving_.joinable()) serving_.join();
    }
    fs::remove_all(dir_);
  }

  /// Writes traces_[index] as an .mbt file at `relative` under the test dir.
  std::string write_trace(std::size_t index, const std::string& relative) {
    const fs::path file = dir_ / relative;
    fs::create_directories(file.parent_path());
    EXPECT_TRUE(darshan::write_mbt_file(traces_[index], file.string()).ok());
    return file.string();
  }

  std::string trace_id(std::size_t index) const {
    return std::to_string(traces_[index].meta.job_id);
  }

  /// Starts a daemon with a submission listener, serving on a thread.
  void start_listening() {
    DaemonOptions options;
    options.listen = Address{"127.0.0.1", 0};
    options.spool_dir = spool_dir();
    start(std::move(options));
    serving_ = std::thread([this] { daemon_->run(); });
  }

  void start(DaemonOptions options) {
    daemon_ = std::make_unique<Daemon>(std::move(options));
    ASSERT_TRUE(daemon_->start().ok());
  }

  std::string spool_dir() const { return (dir_ / "spool").string(); }

  std::size_t spool_files() const {
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator(spool_dir()), fs::directory_iterator()));
  }

  Address submit_address() const {
    return Address{"127.0.0.1", daemon_->listen_port()};
  }

  fs::path dir_;
  std::vector<trace::Trace> traces_;
  std::unique_ptr<Daemon> daemon_;
  std::thread serving_;
};

// Each submit is four one-frame messages (hello, hello, submit, result).
// A frame written as two sends on a Nagle socket waits out the peer's
// delayed ACK: ~88 ms per submit, so 50 submits take at least 4.4 s.
TEST_F(DaemonTest, SequentialSubmitsDoNotStall) {
  constexpr std::size_t kDistinct = 10;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    paths.push_back(write_trace(i, "in/job_" + trace_id(i) + ".mbt"));
  }
  start_listening();

  constexpr std::size_t kSubmits = 50;
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kSubmits; ++i) {
    auto reply =
        submit_trace_file(submit_address(), paths[i % kDistinct], 10.0);
    ASSERT_TRUE(reply.has_value()) << reply.error().to_string();
    ASSERT_TRUE(reply->ok) << reply->error;
    EXPECT_EQ(reply->cached, i >= kDistinct);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed.count(), 1.0) << kSubmits << " submits";

  // Only analyzed submissions keep their spool file; cache hits don't.
  const DaemonStats stats = daemon_->stats();
  EXPECT_EQ(stats.analyzed, kDistinct);
  EXPECT_EQ(stats.cache_hits, kSubmits - kDistinct);
  EXPECT_EQ(spool_files(), kDistinct);
}

// Two different traces under one basename must not share a spool path: the
// second would overwrite the first one's /explain source.
TEST_F(DaemonTest, SameBasenameSubmissionsEachExplainTheirOwnTrace) {
  const std::string first = write_trace(0, "a/job.mbt");
  const std::string second = write_trace(1, "b/job.mbt");
  start_listening();

  for (const std::string& path : {first, second}) {
    auto reply = submit_trace_file(submit_address(), path, 10.0);
    ASSERT_TRUE(reply.has_value()) << reply.error().to_string();
    ASSERT_TRUE(reply->ok) << reply->error;
    EXPECT_FALSE(reply->cached);
  }
  const std::uint16_t port = daemon_->http_port();
  const HttpReply one = http_get(port, "/explain/" + trace_id(0));
  const HttpReply two = http_get(port, "/explain/" + trace_id(1));
  ASSERT_EQ(one.status, 200) << one.body;
  ASSERT_EQ(two.status, 200) << two.body;
  EXPECT_EQ(one.body, live_explain(first));
  EXPECT_EQ(two.body, live_explain(second));
  EXPECT_NE(one.body, two.body);

  // A rejected submission leaves no spool file behind.
  const fs::path garbage = dir_ / "garbage.mbt";
  std::ofstream(garbage) << "not a trace\n";
  auto rejected =
      submit_trace_file(submit_address(), garbage.string(), 10.0);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(spool_files(), 2u);
}

// /explain re-derives from the source file; once that file is gone or holds
// another trace, the daemon answers 404 "resubmit", never stale bytes, and
// a resubmission brings it back.
TEST_F(DaemonTest, ExplainOfAChangedWatchedSourceIs404Resubmit) {
  const std::string deleted = write_trace(2, "watch/deleted.mbt");
  const std::string rewritten = write_trace(3, "watch/rewritten.mbt");
  DaemonOptions options;
  options.watch_dirs = {(dir_ / "watch").string()};
  options.spool_dir = spool_dir();
  start(std::move(options));
  // The stability gate submits a file on the second sweep that sees it.
  daemon_->sweep_watch_dirs();
  daemon_->sweep_watch_dirs();
  ASSERT_EQ(daemon_->stats().analyzed, 2u);

  const std::uint16_t port = daemon_->http_port();
  HttpReply before = http_get(port, "/explain/" + trace_id(2));
  ASSERT_EQ(before.status, 200) << before.body;
  EXPECT_EQ(before.body, live_explain(deleted));
  before = http_get(port, "/explain/" + trace_id(3));
  ASSERT_EQ(before.status, 200) << before.body;
  EXPECT_EQ(before.body, live_explain(rewritten));

  fs::remove(deleted);
  const HttpReply gone = http_get(port, "/explain/" + trace_id(2));
  EXPECT_EQ(gone.status, 404);
  EXPECT_NE(gone.body.find("resubmit"), std::string::npos) << gone.body;

  ASSERT_TRUE(darshan::write_mbt_file(traces_[4], rewritten).ok());
  const HttpReply changed = http_get(port, "/explain/" + trace_id(3));
  EXPECT_EQ(changed.status, 404);
  EXPECT_NE(changed.body.find("resubmit"), std::string::npos) << changed.body;

  const HttpReply unknown = http_get(port, "/explain/999999999");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_NE(unknown.body.find("no cached analysis"), std::string::npos);

  // Resubmitting, here as copies under new names, is a cache hit that makes
  // the copy the trace's source: /explain answers again.
  const std::string copy2 = write_trace(2, "watch/copy2.mbt");
  const std::string copy3 = write_trace(3, "watch/copy3.mbt");
  daemon_->sweep_watch_dirs();
  daemon_->sweep_watch_dirs();
  EXPECT_EQ(daemon_->stats().analyzed, 2u);
  EXPECT_EQ(daemon_->stats().cache_hits, 2u);
  const HttpReply revived2 = http_get(port, "/explain/" + trace_id(2));
  ASSERT_EQ(revived2.status, 200) << revived2.body;
  EXPECT_EQ(revived2.body, live_explain(copy2));
  const HttpReply revived3 = http_get(port, "/explain/" + trace_id(3));
  ASSERT_EQ(revived3.status, 200) << revived3.body;
  EXPECT_EQ(revived3.body, live_explain(copy3));
}

}  // namespace
}  // namespace mosaic::dist
