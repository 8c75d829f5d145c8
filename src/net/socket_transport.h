#ifndef MEDSYNC_NET_SOCKET_TRANSPORT_H_
#define MEDSYNC_NET_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics/metrics.h"
#include "common/status.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/network.h"

namespace medsync::net {

/// `Network` over real non-blocking TCP: the deployment counterpart of
/// `SimNetwork`. One transport per OS process; every endpoint Attach()ed
/// locally (a ChainNode, a Peer, its ReliableChannel) shares the process's
/// single listening socket, and a static route map names where every remote
/// id lives. Frames (net/frame.h) carry a JSON envelope
/// {"from","to","body"} so one TCP connection multiplexes all id pairs.
///
/// `Network` owns the contract (net/network.h): resolution, the NotFound
/// fast path, sent/bytes accounting and the broadcast fan-out are the same
/// code the simulator runs. Routed ids are resolvable like local ones. This
/// class implements only `Transmit`: an accepted message that later hits a
/// broken/unconnectable peer or a corrupt stream is silently dropped and
/// counted. ReliableChannel above recovers, which is exactly why it exists.
///
/// Single-threaded: everything runs on the owning EventLoop's thread.
struct SocketTransportOptions {
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;  // 0 = ephemeral; read back via port()
  /// Remote id -> "host:port". Several ids mapping to one address means
  /// one process hosts them all (e.g. a peer and its chain node).
  std::map<NodeId, std::string> routes;
};

class SocketTransport final : public Network {
 public:
  SocketTransport(EventLoop* loop, SocketTransportOptions options);
  ~SocketTransport() override;

  /// Binds + listens and registers with the event loop. Must be called
  /// before messages can arrive; Send() works without it (outbound only).
  Status Listen();

  /// The bound port (after Listen(); 0 before).
  uint16_t port() const { return port_; }

  /// Adds/overwrites a route after construction (for ephemeral-port
  /// harnesses that learn peer ports only after every transport Listen()s).
  void AddRoute(const NodeId& id, const std::string& host_port);

  /// Frames dropped because their stream failed CRC/framing checks
  /// (mirrored to the net.frame_corrupt counter when metrics are attached).
  uint64_t frame_corrupt_count() const { return frame_corrupt_; }

  /// Open TCP connections (inbound + outbound), for tests.
  size_t connection_count() const { return connections_.size(); }

 private:
  struct Connection {
    int fd = -1;
    std::string address;   // "host:port" key for outbound; "" for inbound
    bool connecting = false;
    std::vector<std::string> outbox;  // encoded frames not yet written
    size_t outbox_offset = 0;         // bytes of outbox.front() written
    FrameDecoder decoder;
  };

  /// Schedules local delivery on the next loop turn, or frames the message
  /// onto its route's connection.
  void Transmit(Message message, size_t payload_bytes) override;
  void BindPlaneMetrics(metrics::MetricsRegistry* registry) override;
  /// DeliverLocal, logging a message that no endpoint here takes.
  void Deliver(const Message& message);
  void QueueToAddress(const std::string& address, const Message& message,
                      size_t payload_bytes);
  Connection* GetOrConnect(const std::string& address, Status* status);
  void OnListenReady(uint32_t events);
  void OnConnectionReady(int fd, uint32_t events);
  void HandleReadable(Connection* conn);
  /// Decodes + delivers every complete frame; returns false if the stream
  /// was condemned (connection closed and erased).
  bool DrainFrames(Connection* conn);
  void HandleWritable(Connection* conn);
  void FlushOutbox(Connection* conn);
  void UpdateInterest(Connection* conn);
  /// Closes and forgets the connection; queued frames count as dropped.
  void CloseConnection(int fd);
  /// Counts `n` accepted messages as dropped and logs why.
  void DropFrames(uint64_t n, const char* reason);
  void CountCorrupt(const char* what, const Status& status);

  EventLoop* loop_;
  SocketTransportOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::map<int, std::unique_ptr<Connection>> connections_;
  /// Outbound connection per remote address (fd keyed into connections_).
  std::map<std::string, int> outbound_by_address_;
  uint64_t frame_corrupt_ = 0;
  metrics::Counter* frame_corrupt_counter_ = nullptr;
};

}  // namespace medsync::net

#endif  // MEDSYNC_NET_SOCKET_TRANSPORT_H_
