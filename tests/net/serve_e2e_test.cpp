/// Loopback end-to-end tests for the wdc_serve daemon core: an in-process
/// ServeApp on its own thread, exercised through the LoadDriver and through
/// raw blocking sockets (partial writes, corrupt frames, idle connections).
///
/// The big-fleet runs (≥1000 concurrent connections per protocol) live in the
/// serve_load_<protocol> script tests next to this file; these cases cover
/// the behavioural contracts at a size every ctest invocation can afford:
/// every request answered for all 11 protocols, framing survives arbitrary
/// write granularity, damage and idleness close connections instead of
/// wedging them, backpressure sheds instead of buffering without bound, and
/// the measured latency decomposition telescopes exactly.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/load_driver.hpp"
#include "net/serve_app.hpp"
#include "proto/protocol.hpp"
#include "proto/report_codec.hpp"
#include "proto/serve_codec.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_span.hpp"

namespace wdc::net {
namespace {

std::string uds_path(const std::string& name) {
  return "/tmp/wdc_e2e_" + std::to_string(::getpid()) + "_" + name + ".sock";
}

Scenario small_scenario(ProtocolKind protocol) {
  Scenario s;
  s.protocol = protocol;
  s.seed = 7;
  s.num_clients = 32;
  s.traffic.model = TrafficModel::kOff;
  return s;
}

ServeConfig serve_config(ProtocolKind protocol, const std::string& name) {
  ServeConfig cfg;
  cfg.unix_path = uds_path(name);
  cfg.time_scale = 20.0;  // compress report schedules for the test clock
  cfg.scenario = small_scenario(protocol);
  return cfg;
}

/// ServeApp::run() on its own thread; stop() joins (idempotent).
struct RunningApp {
  std::unique_ptr<ServeApp> app;
  std::thread thread;

  explicit RunningApp(ServeConfig cfg) {
    app = std::make_unique<ServeApp>(std::move(cfg));
    std::string error;
    started = app->start(&error);
    EXPECT_TRUE(started) << error;
    if (started) thread = std::thread([this] { app->run(); });
  }
  ~RunningApp() { stop(); }
  void stop() {
    if (thread.joinable()) {
      app->request_stop();
      thread.join();
    }
  }
  bool started = false;
};

LoadConfig load_config(const ServeConfig& sc) {
  LoadConfig lc;
  lc.unix_path = sc.unix_path;
  lc.connections = 8;
  lc.max_in_flight = 2;
  lc.requests_per_conn = 10;
  lc.seed = 11;
  return lc;
}

// --- raw blocking-socket helpers (test-side client) ---

int unix_dial(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  timeval tv{5, 0};  // keep a misbehaving server from hanging the test
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

void write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void write_framed(int fd, const std::vector<std::uint8_t>& payload) {
  const auto framed = frame_encode(payload);
  write_all(fd, framed.data(), framed.size());
}

/// Read exactly n bytes; false on EOF (or timeout).
bool read_exact(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Read one length-prefixed frame payload; false on EOF.
bool read_framed(int fd, std::vector<std::uint8_t>* out) {
  std::uint32_t len = 0;
  if (!read_exact(fd, reinterpret_cast<std::uint8_t*>(&len), sizeof len))
    return false;
  out->resize(len);
  return len == 0 || read_exact(fd, out->data(), len);
}

/// Read serve frames until one of `kind` arrives; false on EOF first.
bool read_until_kind(int fd, ServeWireKind kind, ServeMessage* out) {
  std::vector<std::uint8_t> frame;
  while (read_framed(fd, &frame)) {
    ServeMessage m;
    if (!decode_serve(frame, &m)) return false;
    if (m.kind == kind) {
      *out = m;
      return true;
    }
  }
  return false;
}

ServeMessage hello(std::uint32_t nonce) {
  ServeMessage m;
  m.kind = ServeWireKind::kHello;
  m.client_nonce = nonce;
  return m;
}

TEST(ServeE2E, AllProtocolsAnswerEveryRequest) {
  for (const ProtocolKind protocol : kAllProtocolsAndBaselines) {
    SCOPED_TRACE(to_string(protocol));
    const ServeConfig sc = serve_config(protocol, "all");
    RunningApp server(sc);
    ASSERT_TRUE(server.started);

    LoadConfig lc = load_config(sc);
    if (protocol == ProtocolKind::kPer) lc.poll_fraction = 0.25;
    LoadDriver driver(lc);
    std::string error;
    ASSERT_TRUE(driver.run(&error)) << error;
    const LoadReport& r = driver.report();
    EXPECT_EQ(r.conn_failures, 0u);
    EXPECT_EQ(r.ops_sent(), 80u);
    EXPECT_EQ(r.dropped(), 0u) << "unanswered ops under "
                               << to_string(protocol);

    server.stop();
    const ServeStats& stats = server.app->stats();
    EXPECT_EQ(stats.hellos, 8u);
    EXPECT_EQ(stats.dropped_answers, 0u);
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.shed_connections, 0u);
    EXPECT_EQ(stats.requests + stats.polls, 80u);
    EXPECT_EQ(stats.answers, 80u);  // poll acks count as answers too
  }
}

TEST(ServeE2E, ByteAtATimeWritesReassemble) {
  // The server must reassemble a frame fed one byte per write() — the frame
  // decoder's partial-read contract, proven over a real socket.
  const ServeConfig sc = serve_config(ProtocolKind::kTs, "partial");
  RunningApp server(sc);
  ASSERT_TRUE(server.started);

  const int fd = unix_dial(sc.unix_path);
  ASSERT_GE(fd, 0);
  const auto framed = frame_encode(encode_serve(hello(0x5eed)));
  for (const std::uint8_t b : framed) write_all(fd, &b, 1);

  ServeMessage ack;
  ASSERT_TRUE(read_until_kind(fd, ServeWireKind::kHelloAck, &ack));
  EXPECT_EQ(ack.client_nonce, 0x5eedu);
  EXPECT_EQ(ack.protocol,
            static_cast<std::uint8_t>(ProtocolKind::kTs));
  EXPECT_EQ(ack.num_items, sc.scenario.db.num_items);

  // And a request over the same drip-fed connection still gets its item.
  ServeMessage req;
  req.kind = ServeWireKind::kRequest;
  req.item = 3;
  req.seq = 1;
  const auto req_framed = frame_encode(encode_serve(req));
  for (const std::uint8_t b : req_framed) write_all(fd, &b, 1);
  ServeMessage item;
  ASSERT_TRUE(read_until_kind(fd, ServeWireKind::kItem, &item));
  EXPECT_EQ(item.item, 3u);
  ::close(fd);
}

/// Regression for the broadcast encode memo: with traffic off a raw client
/// hears nothing but reports, and each must be a new one. The memo must key
/// on the transmission itself: a payload address is recycled by the
/// allocator for the next same-size report, which is nearly every frame for
/// the fixed-size SIG and BS reports.
void expect_report_stamps_increase(ProtocolKind protocol, const char* name) {
  ServeConfig sc = serve_config(protocol, name);
  sc.time_scale = 200.0;
  RunningApp server(sc);
  ASSERT_TRUE(server.started);
  const int fd = unix_dial(sc.unix_path);
  ASSERT_GE(fd, 0);
  write_framed(fd, encode_serve(hello(0xfeed)));
  double last_stamp = -1.0;
  for (int i = 0; i < 12; ++i) {
    ServeMessage m;
    ASSERT_TRUE(read_until_kind(fd, ServeWireKind::kReport, &m));
    Payload report;
    std::string error;
    ASSERT_TRUE(decode_report(m.report_frame.data(), m.report_frame.size(),
                              &report, &error))
        << error;
    const double stamp = std::visit(
        [](const auto& r) {
          if constexpr (requires { r.stamp; })
            return r.stamp;
          else
            return -1.0;
        },
        report);
    EXPECT_GT(stamp, last_stamp) << "report " << i << " repeats a stamp";
    last_stamp = stamp;
  }
  ::close(fd);
}

TEST(ServeE2E, SigReportsAreNeverResent) {
  expect_report_stamps_increase(ProtocolKind::kSig, "sig_fresh");
}

TEST(ServeE2E, BsReportsAreNeverResent) {
  expect_report_stamps_increase(ProtocolKind::kBs, "bs_fresh");
}

TEST(ServeE2E, CorruptFrameClosesTheConnection) {
  const ServeConfig sc = serve_config(ProtocolKind::kTs, "corrupt");
  RunningApp server(sc);
  ASSERT_TRUE(server.started);

  const int fd = unix_dial(sc.unix_path);
  ASSERT_GE(fd, 0);
  write_framed(fd, encode_serve(hello(1)));
  ServeMessage ack;
  ASSERT_TRUE(read_until_kind(fd, ServeWireKind::kHelloAck, &ack));

  // A well-framed payload that is not a serve message: decode error → close.
  write_framed(fd, {0xde, 0xad, 0xbe, 0xef});
  ServeMessage unused;
  EXPECT_FALSE(read_until_kind(fd, ServeWireKind::kItem, &unused));  // EOF
  ::close(fd);

  server.stop();
  EXPECT_GE(server.app->stats().decode_errors, 1u);
  EXPECT_EQ(server.app->active_connections(), 0u);
}

TEST(ServeE2E, OversizedDeclaredLengthClosesTheConnection) {
  const ServeConfig sc = serve_config(ProtocolKind::kTs, "oversize");
  RunningApp server(sc);
  ASSERT_TRUE(server.started);

  const int fd = unix_dial(sc.unix_path);
  ASSERT_GE(fd, 0);
  const std::uint32_t huge = 0xffffffffu;
  write_all(fd, reinterpret_cast<const std::uint8_t*>(&huge), sizeof huge);
  ServeMessage unused;
  EXPECT_FALSE(read_until_kind(fd, ServeWireKind::kHelloAck, &unused));
  ::close(fd);

  server.stop();
  EXPECT_GE(server.app->stats().decode_errors, 1u);
}

TEST(ServeE2E, IdleConnectionIsReadTimedOut) {
  ServeConfig sc = serve_config(ProtocolKind::kTs, "idle");
  sc.read_timeout_s = 0.3;
  RunningApp server(sc);
  ASSERT_TRUE(server.started);

  const int fd = unix_dial(sc.unix_path);
  ASSERT_GE(fd, 0);
  write_framed(fd, encode_serve(hello(2)));
  ServeMessage ack;
  ASSERT_TRUE(read_until_kind(fd, ServeWireKind::kHelloAck, &ack));
  // Send nothing further: the sweep must close us (EOF before the 5 s
  // SO_RCVTIMEO guard trips).
  std::vector<std::uint8_t> frame;
  while (read_framed(fd, &frame)) {
  }
  ::close(fd);

  server.stop();
  EXPECT_GE(server.app->stats().read_timeouts, 1u);
}

TEST(ServeE2E, BackpressureShedsInsteadOfBuffering) {
  // Connection-level proof of the bounded write queue: a peer that never
  // reads gets frames shed once the backlog crosses the ceiling, the backlog
  // itself stays bounded, and `force` still admits the final shed notice.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  ASSERT_TRUE(set_nonblocking(fds[0]));
  ASSERT_TRUE(set_nonblocking(fds[1]));

  constexpr std::size_t kCeiling = 16 * 1024;
  Connection conn(FdGuard{fds[0]}, kMaxFramePayload, kCeiling);
  const std::vector<std::uint8_t> chunk(2048, 0xab);
  bool shed = false;
  for (int i = 0; i < 1000 && !shed; ++i)
    shed = conn.queue_frame(chunk) == Connection::QueueResult::kShed;
  ASSERT_TRUE(shed) << "backlog never crossed the ceiling";
  EXPECT_GE(conn.frames_shed(), 1u);
  EXPECT_LE(conn.backlog_bytes(),
            kCeiling + chunk.size() + kFrameHeaderBytes);
  EXPECT_EQ(conn.queue_frame(chunk, /*force=*/true),
            Connection::QueueResult::kQueued);

  // Drain the peer: the queue flushes and the watermark callback fires
  // exactly when the kernel has accepted every queued byte.
  bool flushed_all = false;
  conn.on_flushed(conn.bytes_queued(), [&flushed_all] { flushed_all = true; });
  std::uint8_t sink[8192];
  while (conn.wants_write()) {
    ASSERT_EQ(conn.flush(), Connection::IoResult::kOk);
    while (::recv(fds[1], sink, sizeof sink, 0) > 0) {
    }
  }
  EXPECT_TRUE(flushed_all);
  EXPECT_EQ(conn.backlog_bytes(), 0u);
  ::close(fds[1]);
}

TEST(ServeE2E, MeasuredDecompositionTelescopesExactly) {
  // Every answered request's four measured parts must sum to its measured
  // latency — the last part is defined as the residual, so failure here
  // means the stamp chain lost monotonicity or derive_spans mispaired.
  ServeConfig sc = serve_config(ProtocolKind::kAt, "trace");
  sc.trace_path = "/tmp/wdc_e2e_" + std::to_string(::getpid()) + ".wdct";
  RunningApp server(sc);
  ASSERT_TRUE(server.started);

  LoadConfig lc = load_config(sc);
  lc.connections = 4;
  lc.max_in_flight = 1;
  lc.requests_per_conn = 25;
  LoadDriver driver(lc);
  std::string error;
  ASSERT_TRUE(driver.run(&error)) << error;
  EXPECT_EQ(driver.report().dropped(), 0u);
  server.stop();  // closes the trace file

  TraceFile tf;
  ASSERT_TRUE(read_trace_file(sc.trace_path, &tf, &error)) << error;
  EXPECT_EQ(tf.protocol(), std::string(to_string(ProtocolKind::kAt)));
  const auto spans = derive_spans(tf.events);
  std::size_t answered = 0;
  for (const QuerySpan& s : spans) {
    if (s.dropped) continue;
    ++answered;
    const double latency = s.latency_s();
    const double sum = s.parts.ir_wait_s + s.parts.uplink_s +
                       s.parts.bcast_wait_s + s.parts.airtime_s;
    EXPECT_GE(s.parts.ir_wait_s, 0.0);
    EXPECT_GE(s.parts.uplink_s, 0.0);
    EXPECT_GE(s.parts.bcast_wait_s, 0.0);
    EXPECT_GE(s.parts.airtime_s, 0.0);
    EXPECT_NEAR(sum, latency, 1e-6 + 1e-9 * latency);
  }
  EXPECT_EQ(answered, 100u);
  ::unlink(sc.trace_path.c_str());
}

}  // namespace
}  // namespace wdc::net
