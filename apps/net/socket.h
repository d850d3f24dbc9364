// POSIX TCP plumbing for the rebootd service tier (apps/): RAII sockets, a
// poll-based listener, and the length-prefixed frame codec every wire
// conversation uses.
//
// Framing: each message is a 4-byte big-endian payload length followed by
// that many bytes of UTF-8 JSON. The length prefix makes partial reads a
// non-event (read_frame loops until the frame is complete or the peer goes
// away) and makes oversized frames detectable *before* buffering them —
// read_frame reports kOversized without consuming the body, so a server can
// answer with a typed error and hang up instead of allocating an attacker's
// length field.
//
// Threading: one Socket may be used by a reader thread and a writer thread
// simultaneously (recv and send on one fd are independent); writes from
// several threads need external serialization. rebootd instead gives each
// connection one thread that polls its non-blocking socket and a Waker, and
// does all of the socket's reads and writes (set_nonblocking, read_some,
// write_some). shutdown_read()/shutdown_both() are the cross-thread
// unblocking knobs: they make a blocked recv return 0 without closing the
// fd out from under the other thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rebooting::net {

/// Move-only RAII wrapper over one connected TCP fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads exactly `n` bytes; false on EOF or error (including a mid-read
  /// disconnect — the partial prefix is discarded).
  bool read_exact(void* buf, std::size_t n);
  /// Writes all `n` bytes (MSG_NOSIGNAL: a dead peer is a false return, not
  /// a SIGPIPE); false on error.
  bool write_all(const void* buf, std::size_t n);

  /// Non-blocking mode, for a thread that polls the fd: read_some and
  /// write_some then never wait. False on error.
  bool set_nonblocking();
  /// One recv of at most `n` bytes: the count read, 0 when nothing is
  /// ready, -1 at EOF or on error.
  long read_some(void* buf, std::size_t n);
  /// One send of at most `n` bytes (MSG_NOSIGNAL): the count written, 0
  /// when the socket buffer is full, -1 on error (the peer is gone).
  long write_some(const void* buf, std::size_t n);

  /// Unblocks a reader on another thread: recv returns 0 (EOF). The write
  /// side stays usable, so pending responses can still drain.
  void shutdown_read();
  /// Unblocks reader and writer both.
  void shutdown_both();
  void close();

 private:
  int fd_ = -1;
};

/// A pollable wake-up signal between threads (a Linux eventfd): notify()
/// makes fd() readable until clear(). How another thread interrupts a
/// thread that sleeps in poll() on a socket.
class Waker {
 public:
  Waker();
  ~Waker();
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  /// False when the eventfd could not be created (out of descriptors).
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void notify();
  void clear();

 private:
  int fd_ = -1;
};

/// Blocking connect to host:port; the returned socket is invalid() on
/// failure (*error carries errno text when provided).
Socket connect_to(const std::string& host, std::uint16_t port,
                  std::string* error = nullptr);

/// Listening socket with poll-based accept so an owner can stop the accept
/// loop with a flag instead of signal games.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens; port 0 picks an ephemeral port (read it back with
  /// port()). False on failure (*error carries errno text when provided).
  bool listen_on(const std::string& host, std::uint16_t port,
                 std::string* error = nullptr);
  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Waits up to `timeout_ms` for a connection; the returned socket is
  /// invalid() on timeout, error, or a closed listener.
  Socket accept(int timeout_ms);
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// How one read_frame call ended.
enum class FrameRead {
  kFrame,      ///< *out holds one complete payload
  kEof,        ///< clean close (or shutdown_read) at a frame boundary...
  kError,      ///< ...or a mid-frame disconnect / socket error
  kOversized,  ///< declared length exceeds max_bytes; body not consumed
};

/// Reads one length-prefixed frame into *out.
FrameRead read_frame(Socket& sock, std::string* out, std::size_t max_bytes);
/// The payload length a 4-byte frame prefix declares.
std::uint32_t frame_length(const char* prefix);
/// Appends `payload` to *out as one frame (prefix + payload), for a writer
/// that sends many frames from one buffer.
void append_frame(std::string* out, std::string_view payload);
/// Writes one frame (4-byte big-endian length + payload). False on error or
/// a payload longer than fits the 32-bit prefix.
bool write_frame(Socket& sock, std::string_view payload);

}  // namespace rebooting::net
