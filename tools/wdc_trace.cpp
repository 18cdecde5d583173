/// @file wdc_trace.cpp
/// Trace inspector: summaries, per-protocol latency decomposition, top-K
/// slowest queries, per-client timelines, and JSONL export for .wdct files
/// produced by trace_file= runs or wdc_bench trace_every= sweeps.
///
///   wdc_trace <file.wdct>... [top=10] [timeline=<client|all>] [jsonl=out.jsonl]
///             [counted_only=true] [distill=out.wdcsched]
///
/// The reader side of src/trace is built unconditionally, so this tool can
/// inspect traces regardless of how the producing binary was configured.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "trace/trace_event.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_span.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wdc;

void usage() {
  std::cerr
      << "usage: wdc_trace <file.wdct>... [key=value ...]\n"
      << "  top=10             slowest answered queries to list per file\n"
      << "  timeline=<id|all>  dump the event timeline of one client (or all)\n"
      << "  jsonl=<path>       export every event of every file as JSONL\n"
      << "  counted_only=true  restrict summaries to post-warm-up answers\n"
      << "  distill=<path>     distil the fault events of ONE input trace into\n"
      << "                     a replayable .wdcsched fault schedule\n";
}

std::string client_label(std::uint16_t client) {
  if (client == kTraceNoClient) return "-";
  return strfmt("%u", static_cast<unsigned>(client));
}

void print_header(const std::string& path, const TraceFile& tf) {
  std::cout << path << ":\n";
  std::cout << strfmt(
      "  protocol %s  seed %llu  sim_time %.0fs  warmup %.0fs  %u clients  "
      "%zu events\n",
      tf.protocol().c_str(),
      static_cast<unsigned long long>(tf.header.seed), tf.header.sim_time_s,
      tf.header.warmup_s, static_cast<unsigned>(tf.header.num_clients),
      tf.events.size());
}

void print_summary(const SpanSummary& s, const char* indent) {
  std::cout << strfmt(
      "%sanswered %llu (hits %llu, stale %llu, drops %llu)\n", indent,
      static_cast<unsigned long long>(s.spans),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.stale),
      static_cast<unsigned long long>(s.drops));
  if (s.spans == 0) return;
  std::cout << strfmt("%smean latency %.4fs  max %.4fs\n", indent,
                      s.mean_latency_s, s.max_latency_s);
  std::cout << strfmt(
      "%sdecomposition: ir-wait %.4fs  uplink %.4fs  bcast-wait %.4fs  "
      "airtime %.4fs\n",
      indent, s.mean_parts.ir_wait_s, s.mean_parts.uplink_s,
      s.mean_parts.bcast_wait_s, s.mean_parts.airtime_s);
}

void print_top_slowest(const std::vector<QuerySpan>& spans, std::size_t top) {
  std::vector<const QuerySpan*> answered;
  answered.reserve(spans.size());
  for (const auto& sp : spans)
    if (!sp.dropped) answered.push_back(&sp);
  if (answered.empty() || top == 0) return;
  const std::size_t k = std::min(top, answered.size());
  std::partial_sort(answered.begin(),
                    answered.begin() + static_cast<std::ptrdiff_t>(k),
                    answered.end(), [](const QuerySpan* a, const QuerySpan* b) {
                      return a->latency_s() > b->latency_s();
                    });
  std::cout << strfmt("  top %zu slowest queries:\n", k);
  std::cout << "    latency   client  item     submit      ir-wait  uplink   "
               "bcast    airtime\n";
  for (std::size_t i = 0; i < k; ++i) {
    const QuerySpan& sp = *answered[i];
    std::cout << strfmt(
        "    %8.4fs %6u %6u %10.3fs  %8.4f %8.4f %8.4f %8.4f%s\n",
        sp.latency_s(), static_cast<unsigned>(sp.client),
        static_cast<unsigned>(sp.item), sp.submit_t, sp.parts.ir_wait_s,
        sp.parts.uplink_s, sp.parts.bcast_wait_s, sp.parts.airtime_s,
        sp.hit ? "  (hit)" : "");
  }
}

void print_timeline(const TraceFile& tf, const std::string& which) {
  const bool all = which == "all";
  std::uint16_t wanted = kTraceNoClient;
  if (!all) wanted = static_cast<std::uint16_t>(std::stoul(which));
  std::cout << (all ? "  timeline (all clients):\n"
                    : strfmt("  timeline (client %s):\n", which.c_str()));
  for (const auto& ev : tf.events) {
    if (!all && ev.client != wanted) continue;
    const auto kind = static_cast<TraceEventKind>(ev.kind);
    std::string detail;
    switch (kind) {
      case TraceEventKind::kAnswer:
        detail = strfmt(" ir=%.4f up=%.4f bw=%.4f at=%.4f%s%s",
                        static_cast<double>(ev.a), static_cast<double>(ev.b),
                        static_cast<double>(ev.c), static_cast<double>(ev.d),
                        (ev.flags & kTraceFlagHit) ? " hit" : " miss",
                        (ev.flags & kTraceFlagStale) ? " STALE" : "");
        break;
      case TraceEventKind::kBroadcastReceive:
        detail = strfmt(" airtime=%.4fs", static_cast<double>(ev.a));
        break;
      case TraceEventKind::kUplinkSend:
        detail = strfmt(" bits=%.0f", static_cast<double>(ev.a));
        break;
      case TraceEventKind::kMcsSwitch:
        detail = strfmt(" mcs %.0f -> %.0f", static_cast<double>(ev.b),
                        static_cast<double>(ev.a));
        break;
      case TraceEventKind::kFaultDownlinkDrop:
        // Numeric message class (MsgKind); the tool links only wdc_trace.
        detail = strfmt(" msg-kind=%.0f", static_cast<double>(ev.a));
        break;
      case TraceEventKind::kRecovery:
        detail = strfmt(" after %.3fs, exposed=%.0f", static_cast<double>(ev.a),
                        static_cast<double>(ev.b));
        break;
      case TraceEventKind::kFaultCorrupt:
        detail = strfmt(" msg-kind=%.0f %s", static_cast<double>(ev.a),
                        ev.b != 0.0f ? "accepted" : "rejected");
        break;
      case TraceEventKind::kServerCrash:
      case TraceEventKind::kServerRecover:
        break;
      default:
        break;
    }
    std::cout << strfmt("    %12.6fs  %-14s client %-5s item %-6u%s\n", ev.t,
                        to_string(kind), client_label(ev.client).c_str(),
                        static_cast<unsigned>(ev.item), detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  const auto files = cfg.load_args(argc, argv);
  if (files.empty()) {
    usage();
    return 2;
  }
  const auto top = cfg.get_count<std::size_t>("top", 10);
  const std::string timeline = cfg.get_string("timeline", "");
  const std::string jsonl = cfg.get_string("jsonl", "");
  const bool counted_only = cfg.get_bool("counted_only", true);
  const std::string distill = cfg.get_string("distill", "");
  try {
    cfg.require_all_used();
  } catch (const std::exception& e) {
    std::cerr << "wdc_trace: " << e.what() << "\n";
    return 2;
  }
  if (!distill.empty() && files.size() != 1) {
    std::cerr << "wdc_trace: distill= takes exactly one input trace\n";
    return 2;
  }

  std::ofstream jsonl_os;
  if (!jsonl.empty()) {
    jsonl_os.open(jsonl);
    if (!jsonl_os) {
      std::cerr << "wdc_trace: cannot write " << jsonl << "\n";
      return 1;
    }
  }

  // Per-protocol aggregation across every file on the command line.
  std::map<std::string, std::vector<QuerySpan>> by_protocol;

  bool any_failed = false;
  for (const auto& path : files) {
    TraceFile tf;
    std::string error;
    if (!read_trace_file(path, &tf, &error)) {
      std::cerr << "wdc_trace: " << path << ": " << error << "\n";
      any_failed = true;
      continue;
    }
    print_header(path, tf);
    const auto spans = derive_spans(tf.events);
    print_summary(summarize_spans(spans, counted_only), "  ");
    print_top_slowest(spans, top);
    if (!timeline.empty()) print_timeline(tf, timeline);
    if (jsonl_os.is_open()) write_trace_jsonl(tf, jsonl_os);
    if (!distill.empty()) {
      try {
        const FaultSchedule sched =
            FaultSchedule::distill(tf.events, tf.header.sim_time_s);
        sched.save_file(distill);
        std::cout << strfmt("[distilled %zu fault events to %s]\n",
                            sched.events.size(), distill.c_str());
      } catch (const std::exception& e) {
        std::cerr << "wdc_trace: distill failed: " << e.what() << "\n";
        return 1;
      }
    }
    auto& agg = by_protocol[tf.protocol()];
    agg.insert(agg.end(), spans.begin(), spans.end());
    std::cout << "\n";
  }

  if (by_protocol.size() > 1 ||
      (by_protocol.size() == 1 && files.size() > 1)) {
    std::cout << "per-protocol aggregate"
              << (counted_only ? " (post-warm-up answers)" : "") << ":\n";
    for (const auto& [proto, spans] : by_protocol) {
      std::cout << "  " << proto << ":\n";
      print_summary(summarize_spans(spans, counted_only), "    ");
    }
  }
  if (jsonl_os.is_open())
    std::cout << "[jsonl written to " << jsonl << "]\n";
  return any_failed ? 1 : 0;
}
