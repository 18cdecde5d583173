#include "proto/factory.hpp"

#include <stdexcept>
#include <type_traits>

#include "proto/at.hpp"
#include "proto/baselines.hpp"
#include "proto/bs.hpp"
#include "proto/cbl.hpp"
#include "proto/hyb.hpp"
#include "proto/lair.hpp"
#include "proto/pig.hpp"
#include "proto/sig.hpp"
#include "proto/ts.hpp"
#include "proto/uir.hpp"

namespace wdc {

std::unique_ptr<ServerProtocol> make_server(ProtocolKind kind, Simulator& sim,
                                            BroadcastMac& mac, Database& db,
                                            const ProtoConfig& cfg) {
  switch (kind) {
    case ProtocolKind::kTs: return std::make_unique<ServerTs>(sim, mac, db, cfg);
    case ProtocolKind::kAt: return std::make_unique<ServerAt>(sim, mac, db, cfg);
    case ProtocolKind::kSig: return std::make_unique<ServerSig>(sim, mac, db, cfg);
    case ProtocolKind::kUir: return std::make_unique<ServerUir>(sim, mac, db, cfg);
    case ProtocolKind::kLair: return std::make_unique<ServerLair>(sim, mac, db, cfg);
    case ProtocolKind::kPig: return std::make_unique<ServerPig>(sim, mac, db, cfg);
    case ProtocolKind::kHyb: return std::make_unique<ServerHyb>(sim, mac, db, cfg);
    case ProtocolKind::kNc: return std::make_unique<ServerNull>(sim, mac, db, cfg);
    case ProtocolKind::kPer: return std::make_unique<ServerPer>(sim, mac, db, cfg);
    case ProtocolKind::kBs: return std::make_unique<ServerBs>(sim, mac, db, cfg);
    case ProtocolKind::kCbl: return std::make_unique<ServerCbl>(sim, mac, db, cfg);
  }
  throw std::logic_error("make_server: unreachable");
}

namespace {

/// Calls `f(std::type_identity<T>{})` with T the concrete client of `kind`.
template <typename F>
decltype(auto) with_client_type(ProtocolKind kind, F&& f) {
  switch (kind) {
    case ProtocolKind::kTs: return f(std::type_identity<ClientTs>{});
    case ProtocolKind::kAt: return f(std::type_identity<ClientAt>{});
    case ProtocolKind::kSig: return f(std::type_identity<ClientSig>{});
    case ProtocolKind::kUir: return f(std::type_identity<ClientUir>{});
    case ProtocolKind::kLair: return f(std::type_identity<ClientLair>{});
    case ProtocolKind::kPig: return f(std::type_identity<ClientPig>{});
    case ProtocolKind::kHyb: return f(std::type_identity<ClientHyb>{});
    case ProtocolKind::kNc: return f(std::type_identity<ClientNc>{});
    case ProtocolKind::kPer: return f(std::type_identity<ClientPer>{});
    case ProtocolKind::kBs: return f(std::type_identity<ClientBs>{});
    case ProtocolKind::kCbl: return f(std::type_identity<ClientCbl>{});
  }
  throw std::logic_error("with_client_type: unreachable");
}

}  // namespace

std::unique_ptr<ClientProtocol> make_client(ProtocolKind kind, Simulator& sim,
                                            BroadcastMac& mac, UplinkChannel& uplink,
                                            ServerProtocol& server,
                                            const Database& oracle,
                                            const ProtoConfig& cfg,
                                            StatsSink& sink, Rng rng) {
  return with_client_type(
      kind, [&](auto type) -> std::unique_ptr<ClientProtocol> {
        return std::make_unique<typename decltype(type)::type>(
            sim, mac, uplink, server, oracle, cfg, sink, rng);
      });
}

std::size_t client_footprint(ProtocolKind kind) {
  return with_client_type(kind, [](auto type) {
    return sizeof(typename decltype(type)::type) +
           ClientProtocol::heap_bytes_at_construction();
  });
}

}  // namespace wdc
