#include "mac/broadcast_mac.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace wdc {
namespace {

/// Harness: a MAC with N fixed-SNR clients and simple recording listeners.
class MacTest : public ::testing::Test {
 protected:
  struct ClientRec final : MacListener {
    void on_reception(const Reception& rx) override {
      ++heard;
      if (rx.decoded) decoded.push_back(rx.msg);
    }
    std::vector<Message> decoded;
    int heard = 0;
  };

  MacTest() : table_(McsTable::simple3()) {}

  void build(MacConfig cfg, std::vector<double> snrs,
             FadingModel fading = FadingModel::kNone) {
    mac_.reset();
    FadingConfig fc;
    fc.model = fading;
    fc.doppler_hz = 50.0;
    links_ = std::make_unique<Downlinks>(fc);
    for (std::size_t i = 0; i < snrs.size(); ++i) links_->add(snrs[i], Rng(i));
    mac_ = std::make_unique<BroadcastMac>(sim_, table_, cfg, Rng(9), *links_);
    recs_.resize(snrs.size());
    for (std::size_t i = 0; i < snrs.size(); ++i) {
      const ClientId id = mac_->register_client(&recs_[i]);
      mac_->set_listening(id, true);
    }
  }

  static Message broadcast_msg(MsgKind kind, Bits bits) {
    Message m;
    m.kind = kind;
    m.bits = bits;
    return m;
  }

  Simulator sim_;
  McsTable table_;
  std::unique_ptr<Downlinks> links_;
  std::unique_ptr<BroadcastMac> mac_;
  std::vector<ClientRec> recs_;
};

TEST_F(MacTest, RejectsIncompletePort) {
  build({}, {20.0});
  EXPECT_THROW(mac_->register_client(nullptr), std::invalid_argument);
  ClientRec no_downlink;  // the link set holds one link, already taken
  EXPECT_THROW(mac_->register_client(&no_downlink), std::invalid_argument);
}

TEST_F(MacTest, BroadcastReachesAllListeners) {
  build({}, {30.0, 30.0, 30.0});
  mac_->enqueue(broadcast_msg(MsgKind::kInvalidationReport, 1000));
  sim_.run_until(10.0);
  for (const auto& rec : recs_) {
    EXPECT_EQ(rec.heard, 1);
    ASSERT_EQ(rec.decoded.size(), 1u);
    EXPECT_EQ(rec.decoded[0].kind, MsgKind::kInvalidationReport);
  }
}

TEST_F(MacTest, SleepingClientHearsNothing) {
  build({}, {30.0, 30.0});
  mac_->set_listening(1, false);
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 1000));
  sim_.run_until(10.0);
  EXPECT_EQ(recs_[0].heard, 1);
  EXPECT_EQ(recs_[1].heard, 0);
}

TEST_F(MacTest, StrictPriorityOrder) {
  build({}, {30.0});
  // Fill the queue while the channel is busy with a data frame, then check
  // service order: IR, mini, item, data.
  mac_->enqueue(broadcast_msg(MsgKind::kDownlinkData, 50000));  // occupies channel
  mac_->enqueue(broadcast_msg(MsgKind::kDownlinkData, 100));
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 100));
  mac_->enqueue(broadcast_msg(MsgKind::kMiniReport, 100));
  mac_->enqueue(broadcast_msg(MsgKind::kInvalidationReport, 100));
  sim_.run_until(100.0);
  ASSERT_EQ(recs_[0].decoded.size(), 5u);
  EXPECT_EQ(recs_[0].decoded[1].kind, MsgKind::kInvalidationReport);
  EXPECT_EQ(recs_[0].decoded[2].kind, MsgKind::kMiniReport);
  EXPECT_EQ(recs_[0].decoded[3].kind, MsgKind::kItemData);
  EXPECT_EQ(recs_[0].decoded[4].kind, MsgKind::kDownlinkData);
}

TEST_F(MacTest, FifoWithinClass) {
  build({}, {30.0});
  mac_->enqueue(broadcast_msg(MsgKind::kDownlinkData, 50000));
  Message a = broadcast_msg(MsgKind::kItemData, 100);
  a.item = 1;
  Message b = broadcast_msg(MsgKind::kItemData, 100);
  b.item = 2;
  mac_->enqueue(a);
  mac_->enqueue(b);
  sim_.run_until(100.0);
  ASSERT_EQ(recs_[0].decoded.size(), 3u);
  EXPECT_EQ(recs_[0].decoded[1].item, 1u);
  EXPECT_EQ(recs_[0].decoded[2].item, 2u);
}

TEST_F(MacTest, AirtimeAccounting) {
  MacConfig cfg;
  cfg.amc.adaptive = false;
  cfg.amc.fixed_mcs = 0;  // 10 kb/s in simple3
  build(cfg, {30.0});
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 10000));  // 1 s + preamble
  sim_.run_until(100.0);
  const auto& st = mac_->stats(MsgKind::kItemData);
  EXPECT_EQ(st.transmitted, 1u);
  EXPECT_NEAR(st.airtime_s, 1.0 + table_.preamble_s(), 1e-9);
  EXPECT_EQ(st.bits, 10000u);
}

TEST_F(MacTest, BusyFractionMatchesLoad) {
  MacConfig cfg;
  cfg.amc.adaptive = false;
  cfg.amc.fixed_mcs = 0;
  build(cfg, {30.0});
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 10000));
  sim_.run_until(10.0);
  EXPECT_NEAR(mac_->busy_fraction(10.0), (1.0 + table_.preamble_s()) / 10.0, 1e-6);
}

TEST_F(MacTest, LinkAdaptationUsesDestinationSnr) {
  MacConfig cfg;
  cfg.amc.hysteresis_db = 0.0;
  cfg.amc.csi_delay_s = 0.0;
  build(cfg, {30.0, -5.0});
  // Unicast to the strong client: fast scheme, short airtime.
  Message fast = broadcast_msg(MsgKind::kDownlinkData, 10000);
  fast.dest = 0;
  mac_->enqueue(fast);
  sim_.run_until(100.0);
  const double strong_airtime = mac_->stats(MsgKind::kDownlinkData).airtime_s;
  // Unicast to the weak client: robust scheme, much longer airtime.
  Message slow = broadcast_msg(MsgKind::kDownlinkData, 10000);
  slow.dest = 1;
  mac_->enqueue(slow);
  sim_.run_until(200.0);
  const double weak_airtime =
      mac_->stats(MsgKind::kDownlinkData).airtime_s - strong_airtime;
  EXPECT_GT(weak_airtime, 2.0 * strong_airtime);
}

TEST_F(MacTest, UnicastPickUsesDelayedCsi) {
  // A fast-fading destination (f_d = 50 Hz) decorrelates in far less than
  // the 50 ms CSI delay: every unicast pick must follow the SNR as of
  // start − csi_delay, and some picks must differ from the current SNR's.
  MacConfig cfg;
  cfg.amc.hysteresis_db = 0.0;
  cfg.amc.csi_delay_s = 0.05;
  cfg.max_retx = 1;  // no retries: one transmission per message
  build(cfg, {15.0}, FadingModel::kRayleigh);
  std::vector<std::size_t> picks;
  mac_->set_tx_observer(
      [&](const Message&, std::size_t mcs, double) { picks.push_back(mcs); });
  std::vector<double> starts;
  for (int k = 0; k < 60; ++k) {
    const double at = 1.0 + 2.0 * k + 0.0123 * (k % 7);
    starts.push_back(at);
    sim_.schedule_at(at, [this] {
      Message m = broadcast_msg(MsgKind::kDownlinkData, 1000);
      m.dest = 0;
      mac_->enqueue(m);
    });
  }
  sim_.run_until(200.0);
  ASSERT_EQ(picks.size(), starts.size());
  AmcController amc(table_, cfg.amc);
  int differs = 0;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const double delayed = links_->snr_db(0, starts[k] - cfg.amc.csi_delay_s);
    EXPECT_EQ(picks[k], amc.select_from_snr(delayed, 1000)) << "k=" << k;
    if (amc.select_from_snr(links_->snr_db(0, starts[k]), 1000) != picks[k])
      ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST_F(MacTest, UnicastRetriesOnFailureThenDrops) {
  MacConfig cfg;
  cfg.amc.adaptive = false;
  cfg.amc.fixed_mcs = 2;  // 100 kb/s needs ~20 dB; dest at −20 dB always fails
  cfg.max_retx = 3;
  build(cfg, {-20.0});
  Message m = broadcast_msg(MsgKind::kDownlinkData, 1000);
  m.dest = 0;
  mac_->enqueue(m);
  sim_.run_until(100.0);
  const auto& st = mac_->stats(MsgKind::kDownlinkData);
  EXPECT_EQ(st.transmitted, 3u);  // initial + 2 retries
  EXPECT_EQ(st.dropped, 1u);
}

TEST_F(MacTest, BroadcastNeverRetries) {
  MacConfig cfg;
  cfg.amc.adaptive = false;
  cfg.amc.fixed_mcs = 2;
  build(cfg, {-20.0});
  mac_->enqueue(broadcast_msg(MsgKind::kInvalidationReport, 1000));
  sim_.run_until(100.0);
  EXPECT_EQ(mac_->stats(MsgKind::kInvalidationReport).transmitted, 1u);
  EXPECT_TRUE(recs_[0].decoded.empty());
  EXPECT_EQ(recs_[0].heard, 1);  // offered but not decoded
}

TEST_F(MacTest, BroadcastReferencePercentile) {
  MacConfig cfg;
  cfg.broadcast_percentile = 0.0;  // minimum over listeners
  build(cfg, {5.0, 15.0, 25.0});
  EXPECT_NEAR(mac_->broadcast_reference_snr(0.0), 5.0, 1e-9);
  mac_->set_listening(0, false);  // weakest asleep: reference moves up
  EXPECT_NEAR(mac_->broadcast_reference_snr(0.0), 15.0, 1e-9);
}

TEST_F(MacTest, BroadcastReferenceInterpolates) {
  MacConfig cfg;
  cfg.broadcast_percentile = 0.5;
  build(cfg, {0.0, 10.0});
  EXPECT_NEAR(mac_->broadcast_reference_snr(0.0), 5.0, 1e-9);
}

/// The percentile of a sorted copy, interpolated between neighbours: the
/// reference broadcast_reference_snr must reproduce exactly.
double sorted_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST_F(MacTest, BroadcastReferenceMatchesSortedReference) {
  // Odd and even populations with ties and an unsorted registration order.
  for (const std::vector<double>& snrs :
       {std::vector<double>{17.0, -3.5, 9.25, 9.25, 30.0, 0.5, 12.0},
        std::vector<double>{8.0, 22.5, -1.0, 8.0, 14.75, 3.0, 27.0, 5.5}}) {
    for (const double p : {0.0, 0.1, 0.25, 0.5, 0.73, 0.9, 1.0}) {
      MacConfig cfg;
      cfg.broadcast_percentile = p;
      recs_.clear();
      build(cfg, snrs);
      EXPECT_EQ(mac_->broadcast_reference_snr(0.0), sorted_percentile(snrs, p))
          << "n=" << snrs.size() << " p=" << p;
      // Listeners only: drop clients 0 and 2 from both sides.
      mac_->set_listening(0, false);
      mac_->set_listening(2, false);
      std::vector<double> listening = snrs;
      listening.erase(listening.begin() + 2);
      listening.erase(listening.begin());
      EXPECT_EQ(mac_->broadcast_reference_snr(0.0),
                sorted_percentile(listening, p))
          << "n=" << snrs.size() << " p=" << p << " (listeners only)";
      // Nobody listening: the whole population is the reference again.
      for (ClientId c = 0; c < snrs.size(); ++c) mac_->set_listening(c, false);
      EXPECT_EQ(mac_->broadcast_reference_snr(0.0), sorted_percentile(snrs, p))
          << "n=" << snrs.size() << " p=" << p << " (nobody listening)";
    }
  }
}

TEST_F(MacTest, TxObserverSeesEveryTransmission) {
  build({}, {30.0});
  int seen = 0;
  mac_->set_tx_observer(
      [&](const Message&, std::size_t, double) { ++seen; });
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 100));
  mac_->enqueue(broadcast_msg(MsgKind::kDownlinkData, 100));
  sim_.run_until(100.0);
  EXPECT_EQ(seen, 2);
}

TEST_F(MacTest, QueueDelayMeasuredFromEnqueue) {
  MacConfig cfg;
  cfg.amc.adaptive = false;
  cfg.amc.fixed_mcs = 0;
  build(cfg, {30.0});
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 10000));  // ~1s service
  mac_->enqueue(broadcast_msg(MsgKind::kItemData, 100));    // waits ~1s
  sim_.run_until(100.0);
  const auto& st = mac_->stats(MsgKind::kItemData);
  EXPECT_EQ(st.queue_delay.count(), 2u);
  EXPECT_NEAR(st.queue_delay.max(), 1.0 + table_.preamble_s(), 1e-6);
}

}  // namespace
}  // namespace wdc
