#ifndef WDC_PROTO_FACTORY_HPP
#define WDC_PROTO_FACTORY_HPP

/// @file factory.hpp
/// Construct matching server/client protocol instances by ProtocolKind.

#include <cstddef>
#include <memory>

#include "proto/client_base.hpp"
#include "proto/protocol.hpp"
#include "proto/server_base.hpp"

namespace wdc {

std::unique_ptr<ServerProtocol> make_server(ProtocolKind kind, Simulator& sim,
                                            BroadcastMac& mac, Database& db,
                                            const ProtoConfig& cfg);

std::unique_ptr<ClientProtocol> make_client(ProtocolKind kind, Simulator& sim,
                                            BroadcastMac& mac, UplinkChannel& uplink,
                                            ServerProtocol& server,
                                            const Database& oracle,
                                            const ProtoConfig& cfg,
                                            StatsSink& sink, Rng rng);

/// Bytes a `kind` client owns when constructed: the concrete object plus what
/// ClientProtocol's constructor reserves on the heap.
std::size_t client_footprint(ProtocolKind kind);

}  // namespace wdc

#endif  // WDC_PROTO_FACTORY_HPP
