// medsync-sca fixture: violates MS009 (raw socket syscalls / raw fd I/O
// outside src/net/). Never compiled.
#include <sys/socket.h>
#include <unistd.h>

int OpensRawSocket(const void* addr, unsigned len) {
  int fd = socket(2, 1, 0);              // MS009
  connect(fd, nullptr, 0);               // MS009
  char buffer[16];
  long got = read(fd, buffer, sizeof(buffer));   // MS009
  long put = ::write(fd, addr, len);             // MS009
  return fd + static_cast<int>(got + put);
}

// Member calls and qualified names merely NAMED like the syscalls must not
// fire: framing lives behind these methods, which is exactly the point.
struct Conn;
long UsesTransport(Conn& conn, Conn* stream, char* out) {
  long got = conn.read(out, 8);
  long fwd = stream->send(out, got);
  return got + fwd + wal::write(out, 4) + stream->poll(0);
}
// Identifiers merely CONTAINING the banned names must not fire either.
long preread_bytes(long n) { return n; }
long do_send_all(long n) { return n; }
// "a socket( in a string" and socket( in this comment stay quiet too.
const char* kDoc = "call socket( then read( the reply";
