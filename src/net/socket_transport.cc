#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

namespace medsync::net {

namespace {

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(
        StrCat("fcntl(O_NONBLOCK): ", std::strerror(errno)));
  }
  return Status::OK();
}

/// Parses "host:port" into a loopback/IPv4 sockaddr.
Status ParseAddress(const std::string& host_port, sockaddr_in* out) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        StrCat("address '", host_port, "' is not host:port"));
  }
  const std::string host = host_port.substr(0, colon);
  const int port = std::atoi(host_port.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument(
        StrCat("address '", host_port, "' has a bad port"));
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("address '", host_port, "' has a bad IPv4 host"));
  }
  return Status::OK();
}

}  // namespace

SocketTransport::SocketTransport(EventLoop* loop,
                                 SocketTransportOptions options)
    : loop_(loop), options_(std::move(options)) {
  for (const auto& [id, address] : options_.routes) AddRemote(id);
}

SocketTransport::~SocketTransport() {
  if (listen_fd_ >= 0) {
    loop_->UnwatchFd(listen_fd_);
    ::close(listen_fd_);
  }
  // Collect fds first: CloseConnection mutates connections_.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd);
}

Status SocketTransport::Listen() {
  sockaddr_in addr;
  MEDSYNC_RETURN_IF_ERROR(ParseAddress(
      StrCat(options_.listen_host, ":",
             options_.listen_port == 0 ? 1 : options_.listen_port),
      &addr));
  addr.sin_port = htons(options_.listen_port);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Internal(
        StrCat("bind ", options_.listen_host, ":", options_.listen_port, ": ",
               std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    Status status = Status::Internal(StrCat("listen: ", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  MEDSYNC_RETURN_IF_ERROR(SetNonBlocking(fd));

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  listen_fd_ = fd;
  loop_->WatchFd(fd, /*want_read=*/true, /*want_write=*/false,
                 [this](uint32_t events) { OnListenReady(events); });
  return Status::OK();
}

void SocketTransport::AddRoute(const NodeId& id, const std::string& host_port) {
  options_.routes[id] = host_port;
  AddRemote(id);
}

void SocketTransport::BindPlaneMetrics(metrics::MetricsRegistry* registry) {
  frame_corrupt_counter_ =
      registry == nullptr ? nullptr : registry->GetCounter("net.frame_corrupt");
}

void SocketTransport::Transmit(Message message, size_t payload_bytes) {
  if (IsLocal(message.to)) {
    // Local delivery stays asynchronous (next loop turn), matching the
    // simulator's invariant that OnMessage never runs inside Send.
    loop_->Schedule(0, [this, message = std::move(message)]() {
      Deliver(message);
    });
    return;
  }
  QueueToAddress(options_.routes.at(message.to), message, payload_bytes);
}

void SocketTransport::Deliver(const Message& message) {
  if (!DeliverLocal(message)) {
    LogIfError(Status::Unavailable("dropped 1 frame(s): detached mid-flight"),
               "net", "socket transport");
  }
}

void SocketTransport::QueueToAddress(const std::string& address,
                                     const Message& message,
                                     size_t payload_bytes) {
  Status status = Status::OK();
  Connection* conn = GetOrConnect(address, &status);
  if (conn == nullptr) {
    // Unresolvable address: message accepted then lost (datagram
    // semantics); ReliableChannel retries above.
    DropFrames(1, status.message().c_str());
    return;
  }
  // The envelope {"body", "from", "to"} in canonical (sorted-key) order,
  // written straight from the shared body: the same bytes as dumping an
  // envelope tree, without copying the body into one.
  Frame frame;
  frame.type = message.type;
  std::string& envelope = frame.payload;
  envelope.reserve(payload_bytes + message.from.size() + message.to.size() +
                   32);
  envelope += "{\"body\":";
  message.payload().AppendDump(&envelope);
  envelope += ",\"from\":";
  Json::AppendString(&envelope, message.from);
  envelope += ",\"to\":";
  Json::AppendString(&envelope, message.to);
  envelope += '}';
  conn->outbox.push_back(EncodeFrame(frame));
  if (!conn->connecting) FlushOutbox(conn);
  UpdateInterest(conn);
}

SocketTransport::Connection* SocketTransport::GetOrConnect(
    const std::string& address, Status* status) {
  auto existing = outbound_by_address_.find(address);
  if (existing != outbound_by_address_.end()) {
    return connections_.at(existing->second).get();
  }

  sockaddr_in addr;
  *status = ParseAddress(address, &addr);
  if (!status->ok()) return nullptr;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = Status::Internal(StrCat("socket: ", std::strerror(errno)));
    return nullptr;
  }
  *status = SetNonBlocking(fd);
  if (!status->ok()) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  bool connecting = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      *status = Status::Internal(
          StrCat("connect ", address, ": ", std::strerror(errno)));
      ::close(fd);
      return nullptr;
    }
    connecting = true;
  }

  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->address = address;
  conn->connecting = connecting;
  Connection* raw = conn.get();
  connections_[fd] = std::move(conn);
  outbound_by_address_[address] = fd;
  loop_->WatchFd(fd, /*want_read=*/true, /*want_write=*/connecting,
                 [this, fd](uint32_t events) { OnConnectionReady(fd, events); });
  return raw;
}

void SocketTransport::OnListenReady(uint32_t /*events*/) {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: drained. Anything else: log and keep listening.
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        LogIfError(Status::Internal(
                       StrCat("accept: ", std::strerror(errno))),
                   "net", "accept");
      }
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    connections_[fd] = std::move(conn);
    loop_->WatchFd(fd, /*want_read=*/true, /*want_write=*/false,
                   [this, fd](uint32_t events) {
                     OnConnectionReady(fd, events);
                   });
  }
}

void SocketTransport::OnConnectionReady(int fd, uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();

  if (conn->connecting) {
    if (events & (EventLoop::kWritable | EventLoop::kError)) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        DropFrames(conn->outbox.size(),
                     StrCat("connect failed: ", std::strerror(err)).c_str());
        conn->outbox.clear();
        CloseConnection(fd);
        return;
      }
      conn->connecting = false;
      FlushOutbox(conn);
      if (connections_.count(fd) == 0) return;  // flush may close
      UpdateInterest(conn);
    }
    return;
  }

  if (events & (EventLoop::kReadable | EventLoop::kError)) {
    HandleReadable(conn);
    if (connections_.count(fd) == 0) return;  // closed during read
  }
  if (events & EventLoop::kWritable) {
    HandleWritable(conn);
  }
}

void SocketTransport::HandleReadable(Connection* conn) {
  const int fd = conn->fd;
  bool closed_by_peer = false;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed_by_peer = true;  // EOF or hard error
    break;
  }
  // Complete frames decode and deliver even when the stream just ended.
  if (!DrainFrames(conn)) return;  // corrupt stream: connection is gone
  if (closed_by_peer) {
    DropFrames(conn->outbox.size(), "connection closed with queued frames");
    conn->outbox.clear();
    CloseConnection(fd);
  }
}

bool SocketTransport::DrainFrames(Connection* conn) {
  while (true) {
    Result<std::optional<Frame>> frame = conn->decoder.Next();
    if (!frame.ok()) {
      // CRC/framing violation: a desynchronized stream cannot resync, so
      // the whole connection is condemned — no partial message is ever
      // delivered.
      CountCorrupt("frame", frame.status());
      const int fd = conn->fd;
      DropFrames(conn->outbox.size(), "corrupt stream with queued frames");
      conn->outbox.clear();
      CloseConnection(fd);
      return false;
    }
    if (!frame.value().has_value()) return true;
    Frame f = std::move(*frame.value());
    Result<Json> envelope = Json::ParseWire(f.payload);
    const bool envelope_ok = envelope.ok() &&
                             envelope.value().At("from").is_string() &&
                             envelope.value().At("to").is_string();
    if (!envelope_ok) {
      CountCorrupt("envelope", envelope.ok()
                                   ? Status::Corruption(
                                         "envelope missing from/to")
                                   : envelope.status());
      const int fd = conn->fd;
      DropFrames(conn->outbox.size(), "corrupt stream with queued frames");
      conn->outbox.clear();
      CloseConnection(fd);
      return false;
    }
    Json::Object& env = envelope.value().AsObject();
    Message message;
    message.type = std::move(f.type);
    message.from = env.at("from").AsString();
    message.to = env.at("to").AsString();
    auto body = env.find("body");
    message.set_payload(body == env.end() ? Json() : std::move(body->second));
    Deliver(message);
  }
}

void SocketTransport::HandleWritable(Connection* conn) {
  FlushOutbox(conn);
  if (connections_.count(conn->fd) > 0) UpdateInterest(conn);
}

void SocketTransport::FlushOutbox(Connection* conn) {
  while (!conn->outbox.empty()) {
    const std::string& front = conn->outbox.front();
    const char* data = front.data() + conn->outbox_offset;
    const size_t remaining = front.size() - conn->outbox_offset;
    const ssize_t n = ::write(conn->fd, data, remaining);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      const int fd = conn->fd;
      DropFrames(conn->outbox.size(),
                   StrCat("write: ", std::strerror(errno)).c_str());
      conn->outbox.clear();
      CloseConnection(fd);
      return;
    }
    conn->outbox_offset += static_cast<size_t>(n);
    if (conn->outbox_offset == front.size()) {
      conn->outbox.erase(conn->outbox.begin());
      conn->outbox_offset = 0;
    }
  }
}

void SocketTransport::UpdateInterest(Connection* conn) {
  loop_->UpdateFd(conn->fd, /*want_read=*/true,
                  /*want_write=*/conn->connecting || !conn->outbox.empty());
}

void SocketTransport::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (!it->second->address.empty()) {
    outbound_by_address_.erase(it->second->address);
  }
  loop_->UnwatchFd(fd);
  ::close(fd);
  connections_.erase(it);
}

void SocketTransport::DropFrames(uint64_t n, const char* reason) {
  if (n == 0) return;
  CountDropped(n);
  LogIfError(Status::Unavailable(StrCat("dropped ", n, " frame(s): ", reason)),
             "net", "socket transport");
}

void SocketTransport::CountCorrupt(const char* what, const Status& status) {
  ++frame_corrupt_;
  metrics::Inc(frame_corrupt_counter_);
  LogIfError(status, "net", StrCat("corrupt ", what, " on wire").c_str());
}

}  // namespace medsync::net
