/// @file channel_explorer.cpp
/// Substrate example: the radio models without any caching protocol on top.
///
/// Prints (1) the EDGE-like MCS table with its BLER operating points, (2) a
/// short time trace of a Rayleigh-faded link with the AMC controller's choices,
/// and (3) the long-run throughput each fading model sustains at a given mean
/// SNR — the numbers behind FIG-6/FIG-7.
///
/// Usage: ./channel_explorer [mean_snr=18] [doppler=8] [trace_s=3]

#include <iostream>

#include "channel/snr_process.hpp"
#include "phy/amc.hpp"
#include "phy/mcs.hpp"
#include "stats/table.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace wdc;
  Config cfg;
  cfg.load_args(argc, argv);
  const double mean_snr = cfg.get_double("mean_snr", 18.0);
  const double doppler = cfg.get_double("doppler", 8.0);
  const double trace_s = cfg.get_double("trace_s", 3.0);
  cfg.require_all_used();

  const McsTable table = McsTable::edge(4);

  std::cout << "— MCS table (EDGE-like, 4 timeslots) —\n\n";
  Table mcs_table({"scheme", "rate kb/s", "SNR@10% BLER", "SNR@1% BLER"});
  for (std::size_t i = 0; i < table.size(); ++i) {
    mcs_table.begin_row();
    mcs_table.cell(table[i].name);
    mcs_table.cell(table[i].rate_bps / 1000.0, 1);
    mcs_table.cell(table[i].snr_for_bler(0.10), 1);
    mcs_table.cell(table[i].snr_for_bler(0.01), 1);
  }
  mcs_table.print_text(std::cout, "  ");

  std::cout << "\n— AMC trace: Rayleigh link, mean SNR " << mean_snr
            << " dB, Doppler " << doppler << " Hz —\n\n";
  Rng rng(42);
  RayleighSnr link(mean_snr, doppler, 0.0, 0.0, rng);
  AmcConfig amc_cfg;
  AmcController amc(table, amc_cfg);
  std::cout << strfmt("  %8s %10s %8s %12s\n", "t (ms)", "SNR (dB)", "MCS",
                      "rate kb/s");
  for (double t = 0.0; t <= trace_s; t += trace_s / 30.0) {
    const double snr = link.snr_db(t);
    const std::size_t mcs = amc.select_from_snr(snr);
    std::cout << strfmt("  %8.0f %10.1f %8s %12.1f\n", t * 1000.0, snr,
                        table[mcs].name.c_str(), table[mcs].rate_bps / 1000.0);
  }

  std::cout << "\n— Sustained goodput by fading model at mean SNR " << mean_snr
            << " dB —\n  (1000-bit frames, AMC with 20 ms CSI delay, decode "
               "failures discard the frame)\n\n";
  Table tput({"model", "goodput kb/s", "frame loss"});
  for (const auto model : {FadingModel::kNone, FadingModel::kRayleigh,
                           FadingModel::kFsmc, FadingModel::kGilbertElliott}) {
    FadingConfig fc;
    fc.model = model;
    fc.doppler_hz = doppler;
    Rng model_rng(7);
    auto proc = make_snr_process(fc, mean_snr, model_rng);
    AmcController ctrl(table, amc_cfg);
    Rng coin(8);
    const Bits frame_bits = 1000;
    double t = 0.0;
    double delivered_bits = 0.0;
    std::uint64_t frames = 0, lost = 0;
    while (t < 400.0) {
      const double est = proc->snr_db(std::max(0.0, t - amc_cfg.csi_delay_s));
      const std::size_t mcs = ctrl.select_from_snr(est, frame_bits);
      const double airtime = table.airtime_s(frame_bits, mcs);
      t += airtime;
      ++frames;
      const double p_ok = table.decode_prob(frame_bits, mcs, proc->snr_db(t));
      if (coin.bernoulli(p_ok))
        delivered_bits += static_cast<double>(frame_bits);
      else
        ++lost;
    }
    tput.begin_row();
    tput.cell(to_string(model));
    tput.cell(delivered_bits / t / 1000.0, 1);
    tput.cell(static_cast<double>(lost) / static_cast<double>(frames), 4);
  }
  tput.print_text(std::cout, "  ");
  std::cout << "\nReading: fading costs goodput twice — robust MCS choices and "
               "residual frame\nloss. The FSMC tracks the Rayleigh numbers; "
               "that is what FIG-6/7 build on.\n";
  return 0;
}
