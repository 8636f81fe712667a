// Per-node TCP stack: owns sockets, demultiplexes incoming packets by
// 4-tuple, manages listeners and ephemeral ports.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "mem/flat_table.hpp"
#include "mem/slab.hpp"
#include "net/address.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "tcp/socket.hpp"

namespace dyncdn::tcp {

class TcpStack {
 public:
  /// Invoked for each newly established inbound connection; the handler
  /// must install callbacks via socket.set_callbacks().
  using AcceptHandler = std::function<void(TcpSocket&)>;

  /// Installs itself as `node`'s receive handler.
  TcpStack(net::Node& node, TcpConfig default_config = {});
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Listen for connections on `port`.
  void listen(net::Port port, AcceptHandler handler);

  /// Active open to `remote`. Returns the connecting socket (it remains
  /// owned by the stack; the reference stays valid until fully closed).
  TcpSocket& connect(net::Endpoint remote, TcpSocket::Callbacks callbacks);
  TcpSocket& connect(net::Endpoint remote, TcpSocket::Callbacks callbacks,
                     const TcpConfig& config);

  net::Node& node() { return node_; }
  sim::Simulator& simulator() { return node_.simulator(); }
  const TcpConfig& default_config() const { return default_config_; }

  std::size_t socket_count() const { return sockets_.size(); }

  /// Lifetime totals for the metrics layer: stats of every socket this
  /// stack ever ran — destroyed ones (accumulated at teardown) plus the
  /// ones still alive.
  SocketStats aggregate_stats() const;
  std::uint64_t sockets_opened() const { return sockets_opened_; }

  // ---- TcpSocket interface ------------------------------------------------
  /// Transmit a packet built by a socket.
  void transmit(net::PacketPtr packet) { node_.send(std::move(packet)); }
  /// Remove a fully closed socket. Destroys it (deferred to a fresh event
  /// so the socket can finish its current handler).
  void destroy(TcpSocket& socket);

 private:
  void on_packet(const net::PacketPtr& packet);
  void send_reset_for(const net::PacketPtr& packet);
  net::Port allocate_ephemeral_port();

  net::Node& node_;
  TcpConfig default_config_;
  /// Flat 4-tuple demux table; socket storage comes from the per-stack
  /// slab, so open/close at steady state is a free-list pop/push and the
  /// lookup on every received segment probes one inline array.
  mem::FlatMap<net::FlowId, TcpSocket*> sockets_;
  mem::TypedSlab<TcpSocket> socket_slab_;
  std::unordered_map<net::Port, AcceptHandler> listeners_;
  net::Port next_ephemeral_ = 40000;
  SocketStats retired_stats_;  // summed when destroyed sockets are reaped
  std::uint64_t sockets_opened_ = 0;
};

}  // namespace dyncdn::tcp
