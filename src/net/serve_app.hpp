#ifndef WDC_NET_SERVE_APP_HPP
#define WDC_NET_SERVE_APP_HPP

/// @file serve_app.hpp
/// The wdc_serve daemon core: one epoll thread (one shard) hosting the real
/// protocol state machines over real sockets. The simulator is the
/// deterministic twin of this server — the SAME ServerProtocol subclass, the
/// SAME Database update process and BroadcastMac link-adaptation machinery
/// run here, driven by socket requests instead of simulated clients, with
/// simulation time paced against CLOCK_MONOTONIC (`time_scale` simulated
/// seconds per wall second).
///
/// Connection ↔ MAC bridge: every connection binds to a MAC client slot
/// (pre-registered for the scenario's client population, grown and reused as
/// connections churn — MAC ports are never unregistered, so slots are a free
/// list). Completed MAC transmissions are encoded as serve_codec envelopes:
/// broadcasts fan out to every live connection, unicast frames reach only
/// their destination slot. TCP replaces the fading channel as a reliable
/// PHY: broadcast frames are delivered regardless of the per-client decode
/// draw (the MAC's airtime, queueing, and link-adaptation behaviour is kept;
/// its loss process is not re-imposed on a lossless transport — unicast
/// frames ride the MAC's own ARQ).
///
/// Measured latency decomposition: every answered request gets a monotone
/// wall-clock stamp chain (client send → uplink read → serve return → MAC
/// delivery → kernel flush) recorded as kQuerySubmit/kAnswer TraceEvents in
/// a .wdct file, so wdc_trace and derive_spans() work unchanged on measured
/// traces and the parts telescope to the measured latency by construction
/// (the last part is the residual).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/downlinks.hpp"
#include "engine/scenario.hpp"
#include "mac/broadcast_mac.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "proto/serve_codec.hpp"
#include "proto/server_base.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_io.hpp"
#include "workload/database.hpp"
#include "workload/traffic_gen.hpp"

namespace wdc::net {

struct ServeConfig {
  /// TCP listen address (used when `unix_path` is empty); port 0 = ephemeral.
  std::string host = "127.0.0.1";
  int port = 0;
  /// Unix-domain listener path; non-empty selects UDS instead of TCP.
  std::string unix_path;

  /// Simulated seconds advanced per wall-clock second (>1 compresses report
  /// schedules for tests; 1.0 = real time).
  double time_scale = 1.0;

  /// Per-connection timeouts: close after this long with no inbound bytes /
  /// with a non-empty write backlog making no progress.
  double read_timeout_s = 60.0;
  double write_timeout_s = 10.0;

  std::size_t max_frame_bytes = kMaxFramePayload;
  /// Write-queue backpressure ceiling per connection (bytes).
  std::size_t max_write_backlog = 1u << 20;

  /// Downlink SNR presented to the MAC for every connection port (TCP does
  /// not fade; the MAC still runs link adaptation against this reference).
  double link_snr_db = 30.0;

  /// Measured-trace output (.wdct); empty disables.
  std::string trace_path;
  /// Use the client-supplied send timestamp as the span origin (same-host
  /// monotonic clock). Off: spans start at the uplink read instant.
  bool trust_client_clock = true;

  /// Protocol / database / traffic / MAC operating point (the deterministic
  /// twin's scenario).
  Scenario scenario;
};

struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t hellos = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t requests = 0;
  std::uint64_t polls = 0;
  std::uint64_t byes = 0;
  std::uint64_t answers = 0;        ///< answered requests (flushed to kernel)
  std::uint64_t dropped_answers = 0;///< requests pending when their conn died
  std::uint64_t reports_tx = 0;
  std::uint64_t items_tx = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t control_tx = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t shed_connections = 0;
};

class ServeApp {
 public:
  explicit ServeApp(ServeConfig cfg);
  ~ServeApp();
  ServeApp(const ServeApp&) = delete;
  ServeApp& operator=(const ServeApp&) = delete;

  /// Bind the listener and build the protocol world. False + `error` on
  /// failure; on success port() is the actually bound TCP port.
  bool start(std::string* error);
  int port() const { return port_; }

  /// Serve until request_stop(). Runs the epoll loop on the calling thread.
  void run();
  /// Signal-safe / cross-thread stop request (wakes the loop via a pipe).
  void request_stop();

  const ServeStats& stats() const { return stats_; }
  const ServeConfig& config() const { return cfg_; }
  std::size_t active_connections() const { return conns_.size(); }

 private:
  struct PendingAnswer {
    std::uint32_t seq = 0;
    double sent_at = 0.0;   ///< client clock (or read instant when untrusted)
    double t_read = 0.0;    ///< request frame decoded off the socket
    double t_serve = 0.0;   ///< ServerProtocol::on_request returned
  };

  struct Conn {
    explicit Conn(Connection io_) : io(std::move(io_)) {}
    Connection io;
    ClientId cid = kInvalidClient;
    bool helloed = false;
    bool epollout = false;
    double accepted_s = 0.0;
    /// FIFO per item — the protocol answers same-item requests in order.
    std::unordered_map<ItemId, std::deque<PendingAnswer>> pending;
    /// PER polls awaiting their unicast PollAck, FIFO per item.
    std::unordered_map<ItemId, std::deque<PendingAnswer>> pending_polls;
    std::uint64_t outstanding = 0;
  };

  static double mono_s();
  double target_sim_time() const;
  void advance_sim();

  void on_listener_ready();
  void on_conn_event(int fd, std::uint32_t events);
  /// Decode + dispatch every completed inbound frame. False = conn closed.
  bool handle_frames(Conn& c);
  bool on_message(Conn& c, const ServeMessage& m, double t_read);
  void on_reception(ClientId slot, const Reception& rx);
  void deliver(Conn& c, const Reception& rx);
  /// Encode `msg` as a serve_codec envelope, memoised across the fan-out of
  /// one MAC delivery sweep.
  const std::vector<std::uint8_t>& encoded_frame(const Message& msg);
  void shed_connection(Conn& c);
  void update_write_interest(Conn& c);
  void close_conn(int fd, const char* reason);
  void sweep_timeouts(double now);

  void bind_slot(Conn& c);
  ClientId register_slot();

  void emit_trace(const TraceEvent& ev);
  void record_answers(ClientId cid, ItemId item,
                      std::vector<PendingAnswer> answered, double t_tx,
                      double t_flush);

  ServeConfig cfg_;
  ServeStats stats_;

  // --- the deterministic twin's world ---
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Database> db_;
  McsTable mcs_table_;
  /// One fixed cfg_.link_snr_db link per MAC port.
  Downlinks links_{FadingConfig{.model = FadingModel::kNone}};
  std::unique_ptr<BroadcastMac> mac_;
  std::unique_ptr<ServerProtocol> server_;
  std::unique_ptr<TrafficGenerator> traffic_;

  // --- sockets ---
  EventLoop loop_;
  FdGuard listener_;
  int port_ = 0;
  FdGuard wake_rd_, wake_wr_;
  std::atomic<bool> stop_{false};  ///< set by request_stop(), any thread
  double epoch_s_ = 0.0;
  double next_sweep_s_ = 0.0;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  /// A MAC client slot, forwarding its receptions to on_reception(). The MAC
  /// holds its address, hence the deque. `conn` is the bound connection or
  /// nullptr; the slot's MAC listening bit is set exactly while one is bound.
  struct Slot final : MacListener {
    Slot(ServeApp* app_, ClientId id_) : app(app_), id(id_) {}
    void on_reception(const Reception& rx) override {
      app->on_reception(id, rx);
    }
    ServeApp* app;
    ClientId id;
    Conn* conn = nullptr;
  };
  std::deque<Slot> slots_;
  std::vector<ClientId> free_slots_;

  /// Broadcast frames encode once per MAC delivery sweep, not once per port:
  /// `encoded_` holds the bytes of the transmission whose Message::seq is
  /// `encoded_seq_` (0 = none yet).
  std::uint64_t encoded_seq_ = 0;
  std::vector<std::uint8_t> encoded_;

  TraceFileWriter trace_writer_;
  bool tracing_ = false;
};

}  // namespace wdc::net

#endif  // WDC_NET_SERVE_APP_HPP
