#include "net/serve_app.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "proto/baselines.hpp"
#include "proto/factory.hpp"
#include "proto/report_codec.hpp"
#include "util/check.hpp"

namespace wdc::net {

namespace {

/// Timeout/pacing sweep granularity: the loop wakes at least this often even
/// when both the sim queue and the sockets are quiet.
constexpr double kSweepPeriodS = 0.25;

/// Listen backlog. A whole load fleet connecting at once must fit: a full
/// backlog refuses TCP connects and makes Unix-domain connects fail EAGAIN
/// while the accept sweep is busy advancing the simulation.
constexpr int kListenBacklog = 4096;

}  // namespace

ServeApp::ServeApp(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      mcs_table_(cfg_.scenario.make_mcs_table()) {}

ServeApp::~ServeApp() {
  if (tracing_) trace_writer_.close();
}

double ServeApp::mono_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ServeApp::target_sim_time() const {
  return (mono_s() - epoch_s_) * cfg_.time_scale;
}

void ServeApp::advance_sim() { sim_->run_until(target_sim_time()); }

bool ServeApp::start(std::string* error) {
  raise_fd_limit();
  if (!loop_.ok()) {
    if (error) *error = loop_.error();
    return false;
  }

  // --- listener ---
  if (!cfg_.unix_path.empty()) {
    listener_ = unix_listen(cfg_.unix_path, kListenBacklog, error);
  } else {
    listener_ = tcp_listen(cfg_.host, cfg_.port, kListenBacklog, &port_, error);
  }
  if (!listener_.valid()) return false;

  // --- the protocol world (mirrors the engine's seed-chain order, so the
  // daemon at seed S is the twin of the simulation at seed S) ---
  const Scenario& sc = cfg_.scenario;
  Rng master(sc.seed);
  Rng geo_rng = master.split();
  Rng chan_rng = master.split();
  Rng mac_rng = master.split();
  Rng db_rng = master.split();
  Rng wl_rng = master.split();
  (void)geo_rng;
  (void)chan_rng;

  sim_ = std::make_unique<Simulator>();
  mac_ = std::make_unique<BroadcastMac>(*sim_, mcs_table_, sc.mac, mac_rng,
                                        links_);
  db_ = std::make_unique<Database>(*sim_, sc.db, db_rng);
  server_ = make_server(sc.protocol, *sim_, *mac_, *db_, sc.proto);

  // Pre-register one MAC port per scenario client so traffic destinations are
  // always valid; connections bind to (and release) these slots as they churn.
  for (std::uint32_t i = 0; i < sc.num_clients; ++i) register_slot();
  free_slots_.reserve(sc.num_clients);
  for (std::uint32_t i = sc.num_clients; i > 0; --i)
    free_slots_.push_back(static_cast<ClientId>(i - 1));

  if (sc.traffic.model != TrafficModel::kOff) {
    traffic_ = std::make_unique<TrafficGenerator>(
        *sim_, sc.traffic, sc.num_clients, wl_rng,
        [this](const TrafficFrame& f) { server_->on_downlink_frame(f); });
  }
  server_->start();

  if (!cfg_.trace_path.empty()) {
    TraceMeta meta;
    meta.protocol = to_string(sc.protocol);
    meta.seed = sc.seed;
    meta.sim_time_s = 0.0;  // open-ended measured run
    meta.warmup_s = 0.0;
    meta.num_clients = sc.num_clients;
    if (!trace_writer_.open(cfg_.trace_path, make_trace_header(meta))) {
      if (error) *error = "cannot open trace file: " + cfg_.trace_path;
      return false;
    }
    tracing_ = true;
  }

  // --- wake pipe (request_stop() from other threads / signal handlers) ---
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    if (error) *error = "pipe: " + errno_string(errno);
    return false;
  }
  wake_rd_ = FdGuard(pipefd[0]);
  wake_wr_ = FdGuard(pipefd[1]);
  set_nonblocking(wake_rd_.get());
  set_nonblocking(wake_wr_.get());
  loop_.add(wake_rd_.get(), EPOLLIN, [this](std::uint32_t) {
    std::uint8_t buf[64];
    while (::read(wake_rd_.get(), buf, sizeof buf) > 0) {
    }
  });

  set_nonblocking(listener_.get());
  loop_.add(listener_.get(), EPOLLIN,
            [this](std::uint32_t) { on_listener_ready(); });

  epoch_s_ = mono_s();
  next_sweep_s_ = epoch_s_ + kSweepPeriodS;
  return true;
}

ClientId ServeApp::register_slot() {
  const auto id = static_cast<ClientId>(slots_.size());
  slots_.emplace_back(this, id);
  links_.add(cfg_.link_snr_db, Rng(0));  // a fixed link draws nothing
  const ClientId got = mac_->register_client(&slots_.back());
  WDC_CHECK(got == id, "MAC port ids must stay dense");
  return id;
}

void ServeApp::bind_slot(Conn& c) {
  if (free_slots_.empty()) {
    c.cid = register_slot();
  } else {
    c.cid = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[c.cid].conn = &c;
  mac_->set_listening(c.cid, true);
}

void ServeApp::request_stop() {
  stop_ = true;
  const std::uint8_t one = 1;
  if (wake_wr_.valid()) {
    [[maybe_unused]] ssize_t n = ::write(wake_wr_.get(), &one, 1);
  }
}

void ServeApp::run() {
  while (!stop_) {
    advance_sim();
    const double now = mono_s();
    if (now >= next_sweep_s_) {
      sweep_timeouts(now);
      next_sweep_s_ = now + kSweepPeriodS;
    }
    // Sleep until the next simulated instant, the next sweep, or a socket —
    // whichever is first.
    double wait_s = next_sweep_s_ - now;
    const SimTime next_ev = sim_->next_event_time();
    if (next_ev != kNever) {
      const double ev_wall = epoch_s_ + next_ev / cfg_.time_scale;
      wait_s = std::min(wait_s, ev_wall - now);
    }
    const int timeout_ms =
        std::max(0, std::min(250, static_cast<int>(wait_s * 1000.0)));
    if (loop_.poll_once(timeout_ms) < 0) break;
  }
  // Orderly teardown: anything still pending on a live connection was never
  // answered.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) fds.push_back(fd);
  for (int fd : fds) close_conn(fd, "shutdown");
  if (tracing_) {
    trace_writer_.close();
    tracing_ = false;
  }
}

void ServeApp::on_listener_ready() {
  for (;;) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure (EMFILE, ECONNABORTED): retry later
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>(
        Connection(FdGuard(fd), cfg_.max_frame_bytes, cfg_.max_write_backlog));
    const double now = mono_s();
    conn->accepted_s = now;
    conn->io.last_read_s = now;
    conn->io.last_write_progress_s = now;
    ++stats_.accepted;
    loop_.add(fd, EPOLLIN,
              [this, fd](std::uint32_t events) { on_conn_event(fd, events); });
    conns_.emplace(fd, std::move(conn));
  }
}

void ServeApp::on_conn_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(fd, "hangup");
    return;
  }
  if (events & EPOLLIN) {
    const auto r = c.io.read_some();
    c.io.last_read_s = mono_s();
    if (!handle_frames(c)) return;  // closed during dispatch
    if (r == Connection::IoResult::kClosed) {
      close_conn(fd, "eof");
      return;
    }
    if (r == Connection::IoResult::kError) {
      close_conn(fd, "read error");
      return;
    }
  }
  if (events & EPOLLOUT) {
    const std::uint64_t before = c.io.bytes_flushed();
    const auto r = c.io.flush();
    if (c.io.bytes_flushed() != before) c.io.last_write_progress_s = mono_s();
    if (r != Connection::IoResult::kOk) {
      close_conn(fd, "write error");
      return;
    }
    update_write_interest(c);
  }
}

bool ServeApp::handle_frames(Conn& c) {
  const int fd = c.io.fd();
  std::vector<std::uint8_t> frame;
  while (c.io.next_frame(&frame)) {
    ++stats_.frames_rx;
    ServeMessage m;
    std::string err;
    if (!decode_serve(frame, &m, &err)) {
      ++stats_.decode_errors;
      close_conn(fd, "decode error");
      return false;
    }
    if (!on_message(c, m, mono_s())) return false;
  }
  if (c.io.read_poisoned()) {
    ++stats_.decode_errors;
    close_conn(fd, "frame error");
    return false;
  }
  return true;
}

bool ServeApp::on_message(Conn& c, const ServeMessage& m, double t_read) {
  // Keep the twin's clock ahead of the request it is about to serve. The
  // advance can deliver frames to *this* connection and shed it — re-check
  // liveness before touching `c` again.
  const int fd = c.io.fd();
  advance_sim();
  const auto self = conns_.find(fd);
  if (self == conns_.end() || self->second.get() != &c) return false;
  switch (m.kind) {
    case ServeWireKind::kHello: {
      if (c.helloed) {
        close_conn(c.io.fd(), "duplicate hello");
        return false;
      }
      c.helloed = true;
      ++stats_.hellos;
      bind_slot(c);
      ServeMessage ack;
      ack.kind = ServeWireKind::kHelloAck;
      ack.client_nonce = m.client_nonce;
      ack.client_id = c.cid;
      ack.num_items = db_->num_items();
      ack.protocol = static_cast<std::uint8_t>(cfg_.scenario.protocol);
      ack.ir_interval_s = cfg_.scenario.proto.ir_interval_s;
      if (c.io.queue_frame(encode_serve(ack)) ==
          Connection::QueueResult::kShed) {
        shed_connection(c);
        return false;
      }
      update_write_interest(c);
      return true;
    }
    case ServeWireKind::kRequest: {
      if (!c.helloed) {
        close_conn(c.io.fd(), "request before hello");
        return false;
      }
      if (m.item >= db_->num_items()) {
        close_conn(c.io.fd(), "item out of range");
        return false;
      }
      ++stats_.requests;
      PendingAnswer pa;
      pa.seq = m.seq;
      pa.sent_at = cfg_.trust_client_clock ? std::min(m.sent_at, t_read) : t_read;
      pa.t_read = t_read;
      auto& fifo = c.pending[m.item];
      fifo.push_back(pa);
      ++c.outstanding;
      if (tracing_) {
        TraceEvent ev;
        ev.t = pa.sent_at;
        ev.item = m.item;
        ev.client = trace_client(c.cid);
        ev.kind = static_cast<std::uint8_t>(TraceEventKind::kQuerySubmit);
        emit_trace(ev);
      }
      server_->on_request(c.cid, m.item);
      fifo.back().t_serve = mono_s();
      return true;
    }
    case ServeWireKind::kPoll: {
      if (!c.helloed) {
        close_conn(c.io.fd(), "poll before hello");
        return false;
      }
      if (m.item >= db_->num_items()) {
        close_conn(c.io.fd(), "item out of range");
        return false;
      }
      ++stats_.polls;
      auto* per = dynamic_cast<ServerPer*>(server_.get());
      if (per == nullptr) return true;  // protocol answers no polls; ignore
      PendingAnswer pa;
      pa.seq = m.seq;
      pa.sent_at = cfg_.trust_client_clock ? std::min(m.sent_at, t_read) : t_read;
      pa.t_read = t_read;
      auto& fifo = c.pending_polls[m.item];
      fifo.push_back(pa);
      ++c.outstanding;
      if (tracing_) {
        TraceEvent ev;
        ev.t = pa.sent_at;
        ev.item = m.item;
        ev.client = trace_client(c.cid);
        ev.kind = static_cast<std::uint8_t>(TraceEventKind::kQuerySubmit);
        emit_trace(ev);
      }
      per->on_poll(c.cid, m.item, m.version);
      fifo.back().t_serve = mono_s();
      return true;
    }
    case ServeWireKind::kBye:
      ++stats_.byes;
      // An orderly goodbye withdraws the client's unanswered ops — items
      // still queued in the simulated MAC for a departing client are not
      // drops. Only abnormal closes (timeouts, sheds, EOF mid-request) leave
      // `outstanding` for close_conn to count.
      c.pending.clear();
      c.pending_polls.clear();
      c.outstanding = 0;
      close_conn(c.io.fd(), "bye");
      return false;
    default:
      close_conn(c.io.fd(), "unexpected client frame kind");
      return false;
  }
}

const std::vector<std::uint8_t>& ServeApp::encoded_frame(const Message& msg) {
  WDC_ASSERT(msg.seq != 0, "encoding a frame the MAC never stamped");
  if (msg.seq == encoded_seq_) return encoded_;
  ServeMessage m;
  switch (msg.kind) {
    case MsgKind::kInvalidationReport:
    case MsgKind::kMiniReport:
      m.kind = ServeWireKind::kReport;
      m.report_frame = encode_report(msg.payload);
      break;
    case MsgKind::kItemData: {
      m.kind = ServeWireKind::kItem;
      m.item = msg.item;
      m.version = msg.version;
      m.payload_bits = msg.bits;
      if (const auto* ip = std::get_if<ItemPayload>(&msg.payload)) {
        m.content_time = ip->content_time;
        m.lease_s = ip->lease_s;
        if (ip->digest) m.digest_frame = encode_report(*ip->digest);
      }
      break;
    }
    case MsgKind::kDownlinkData: {
      m.kind = ServeWireKind::kData;
      m.payload_bits = msg.bits;
      const auto* dp = std::get_if<DataPayload>(&msg.payload);
      if (dp != nullptr && dp->digest)
        m.digest_frame = encode_report(*dp->digest);
      break;
    }
    case MsgKind::kControl: {
      if (const auto* ack = std::get_if<PollAck>(&msg.payload)) {
        m.kind = ServeWireKind::kPollAck;
        m.item = ack->item;
        m.version = ack->version;
        m.content_time = ack->content_time;
        m.valid = ack->valid;
      } else if (const auto* inv = std::get_if<InvalidateNotice>(&msg.payload)) {
        m.kind = ServeWireKind::kInvalidate;
        m.item = inv->item;
        m.update_time = inv->update_time;
      } else {
        m.kind = ServeWireKind::kData;  // unknown control: opaque frame
        m.payload_bits = msg.bits;
      }
      break;
    }
  }
  encoded_ = encode_serve(m);
  encoded_seq_ = msg.seq;
  return encoded_;
}

void ServeApp::on_reception(ClientId slot, const Reception& rx) {
  Conn* c = slots_[slot].conn;
  WDC_ASSERT(c != nullptr, "MAC delivered to unbound slot ", slot);
  const Message& msg = rx.msg;
  if (!msg.is_broadcast()) {
    // Unicast rides the MAC's ARQ: deliver only the successfully decoded
    // attempt addressed to this slot (failed attempts retransmit).
    if (msg.dest != slot || !rx.decoded) return;
  }
  // Broadcast frames are delivered regardless of the decode draw: TCP is the
  // reliable PHY here; the MAC's airtime/link-adaptation dynamics are kept,
  // its loss process is not re-imposed on a lossless transport.
  deliver(*c, rx);
}

void ServeApp::deliver(Conn& c, const Reception& rx) {
  const Message& msg = rx.msg;
  const std::vector<std::uint8_t>& frame = encoded_frame(msg);

  const bool critical = msg.kind != MsgKind::kDownlinkData;
  const auto queued = c.io.queue_frame(frame);
  if (queued == Connection::QueueResult::kShed) {
    if (critical) {
      shed_connection(c);
    } else {
      ++stats_.shed_frames;
    }
    return;
  }

  switch (msg.kind) {
    case MsgKind::kInvalidationReport:
    case MsgKind::kMiniReport:
      ++stats_.reports_tx;
      break;
    case MsgKind::kItemData: {
      ++stats_.items_tx;
      auto it = c.pending.find(msg.item);
      if (it != c.pending.end() && !it->second.empty()) {
        std::vector<PendingAnswer> answered(it->second.begin(),
                                            it->second.end());
        c.pending.erase(it);
        c.outstanding -= answered.size();
        const double t_tx = mono_s();
        const ClientId cid = c.cid;
        const ItemId item = msg.item;
        c.io.on_flushed(c.io.bytes_queued(),
                        [this, cid, item, answered = std::move(answered),
                         t_tx]() mutable {
                          record_answers(cid, item, std::move(answered), t_tx,
                                         mono_s());
                        });
      }
      break;
    }
    case MsgKind::kControl: {
      ++stats_.control_tx;
      if (std::holds_alternative<PollAck>(msg.payload)) {
        auto it = c.pending_polls.find(msg.item);
        if (it != c.pending_polls.end() && !it->second.empty()) {
          std::vector<PendingAnswer> answered;
          answered.push_back(it->second.front());
          it->second.pop_front();
          if (it->second.empty()) c.pending_polls.erase(it);
          --c.outstanding;
          const double t_tx = mono_s();
          const ClientId cid = c.cid;
          const ItemId item = msg.item;
          c.io.on_flushed(c.io.bytes_queued(),
                          [this, cid, item, answered = std::move(answered),
                           t_tx]() mutable {
                            record_answers(cid, item, std::move(answered),
                                           t_tx, mono_s());
                          });
        }
      }
      break;
    }
    case MsgKind::kDownlinkData:
      ++stats_.data_tx;
      break;
  }
  update_write_interest(c);
}

void ServeApp::record_answers(ClientId cid, ItemId item,
                              std::vector<PendingAnswer> answered, double t_tx,
                              double t_flush) {
  for (const PendingAnswer& pa : answered) {
    ++stats_.answers;
    if (!tracing_) continue;
    // Clamp the stamp chain monotone, then decompose; the last part is the
    // residual, so the four parts telescope exactly to the measured latency.
    const double sent = pa.sent_at;
    const double read = std::max(sent, pa.t_read);
    const double served = std::max(read, pa.t_serve);
    const double tx = std::max(served, t_tx);
    const double flush = std::max(tx, t_flush);
    const double latency = flush - sent;
    const double uplink = read - sent;
    const double serve = served - read;
    const double queue = tx - served;
    const double residual = latency - uplink - serve - queue;
    TraceEvent ev;
    ev.t = flush;
    ev.a = static_cast<float>(serve);
    ev.b = static_cast<float>(uplink);
    ev.c = static_cast<float>(queue);
    ev.d = static_cast<float>(residual);
    ev.item = item;
    ev.client = trace_client(cid);
    ev.kind = static_cast<std::uint8_t>(TraceEventKind::kAnswer);
    ev.flags = kTraceFlagCounted;
    emit_trace(ev);
  }
}

void ServeApp::shed_connection(Conn& c) {
  ++stats_.shed_connections;
  ServeMessage notice;
  notice.kind = ServeWireKind::kShed;
  notice.shed_reason = 1;
  c.io.queue_frame(encode_serve(notice), /*force=*/true);  // best effort
  close_conn(c.io.fd(), "backpressure shed");
}

void ServeApp::update_write_interest(Conn& c) {
  const bool want = c.io.wants_write();
  if (want == c.epollout) return;
  c.epollout = want;
  loop_.modify(c.io.fd(), EPOLLIN | (want ? EPOLLOUT : 0u));
}

void ServeApp::close_conn(int fd, const char* reason) {
  (void)reason;
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  stats_.dropped_answers += c.outstanding;
  if (c.cid != kInvalidClient) {
    slots_[c.cid].conn = nullptr;
    mac_->set_listening(c.cid, false);
    free_slots_.push_back(c.cid);
  }
  loop_.remove(fd);
  ++stats_.closed;
  conns_.erase(it);  // FdGuard closes the socket
}

void ServeApp::sweep_timeouts(double now) {
  std::vector<int> read_timed_out;
  std::vector<int> write_timed_out;
  for (const auto& [fd, conn] : conns_) {
    const Conn& c = *conn;
    if (now - c.io.last_read_s > cfg_.read_timeout_s) {
      read_timed_out.push_back(fd);
      continue;
    }
    if (c.io.wants_write() &&
        now - c.io.last_write_progress_s > cfg_.write_timeout_s) {
      write_timed_out.push_back(fd);
    }
  }
  for (int fd : read_timed_out) {
    ++stats_.read_timeouts;
    close_conn(fd, "read timeout");
  }
  for (int fd : write_timed_out) {
    ++stats_.write_timeouts;
    close_conn(fd, "write timeout");
  }
}

void ServeApp::emit_trace(const TraceEvent& ev) {
  if (tracing_) trace_writer_.append(&ev, 1);
}

}  // namespace wdc::net
