#include "net/socket.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/fault.h"

namespace pverify {
namespace net {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    // Only surfaces when the caller armed SO_SNDTIMEO/SO_RCVTIMEO: the
    // socket is blocking, so EAGAIN means the timeout fired.
    throw WireTimeout(what + ": timed out");
  }
  throw WireError(what + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  // Query frames are small (tens of bytes); Nagle would add a full RTT of
  // batching delay to every pipelined request, which is exactly the latency
  // the load generator measures.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
#ifdef SO_NOSIGPIPE
  // BSD/macOS: belt on top of the per-send MSG_NOSIGNAL braces (which
  // those platforms lack).
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

#ifndef MSG_NOSIGNAL
// Platforms with SO_NOSIGPIPE instead of the per-call flag.
#define MSG_NOSIGNAL 0
#endif

void SetTimeoutOpt(int fd, int opt, uint32_t timeout_ms,
                   const char* what) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) < 0) {
    ThrowErrno(what);
  }
}

// Applies the fault injector's plan for one n-byte write on `sock`: returns
// the bytes to send (`p`, or a corrupted copy held in `mangled`), or shuts
// the socket down and throws for a truncate or sever.
const uint8_t* ApplyWriteFault(Socket& sock, const uint8_t* p, size_t n,
                               std::vector<uint8_t>* mangled) {
  FaultInjector& faults = FaultInjector::Global();
  if (!faults.enabled() || n == 0) return p;
  FaultPlan plan = faults.PlanWrite(n);
  if (plan.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
  }
  switch (plan.kind) {
    case FaultKind::kNone:
    case FaultKind::kDelay:
      return p;
    case FaultKind::kCorrupt:
      mangled->assign(p, p + n);
      (*mangled)[plan.at] ^= 0x80;
      return mangled->data();
    case FaultKind::kTruncate: {
      // Deliver a prefix so the peer sees a frame cut off mid-flight,
      // then kill the connection from this side. Non-blocking: a full
      // send buffer only shortens the prefix.
      size_t prefix = plan.at;
      while (prefix > 0) {
        ssize_t written = ::send(sock.fd(), p, prefix,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (written <= 0) break;
        p += written;
        prefix -= static_cast<size_t>(written);
      }
      sock.ShutdownBoth();
      throw WireError("fault injection: write truncated");
    }
    case FaultKind::kSever:
      sock.ShutdownBoth();
      throw WireError("fault injection: connection severed");
  }
  return p;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::WriteAll(const void* data, size_t n) {
  std::vector<uint8_t> mangled;  // only allocated when a fault corrupts
  const uint8_t* p =
      ApplyWriteFault(*this, static_cast<const uint8_t*>(data), n, &mangled);
  while (n > 0) {
    ssize_t written = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("socket write");
    }
    if (written == 0) throw WireError("socket write: connection closed");
    p += written;
    n -= static_cast<size_t>(written);
  }
}

size_t Socket::WriteSome(const void* data, size_t n) {
  std::vector<uint8_t> mangled;
  const uint8_t* p =
      ApplyWriteFault(*this, static_cast<const uint8_t*>(data), n, &mangled);
  size_t sent = 0;
  while (sent < n) {
    ssize_t written =
        ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // buffer full
      ThrowErrno("socket write");
    }
    if (written == 0) throw WireError("socket write: connection closed");
    sent += static_cast<size_t>(written);
  }
  return sent;
}

bool Socket::ReadExact(void* data, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(data);
  FaultPlan plan;
  FaultInjector& faults = FaultInjector::Global();
  if (faults.enabled() && n > 0) {
    plan = faults.PlanRead(n);
    if (plan.delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
    }
    if (plan.kind == FaultKind::kSever ||
        plan.kind == FaultKind::kTruncate) {
      ShutdownBoth();
      throw WireError("fault injection: connection severed");
    }
  }
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("socket read");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF between frames
      throw WireError("socket read: connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  if (plan.kind == FaultKind::kCorrupt) p[plan.at] ^= 0x80;
  return true;
}

size_t Socket::BytesAvailable() const {
  int bytes = 0;
  if (::ioctl(fd_, FIONREAD, &bytes) < 0 || bytes < 0) return 0;
  return static_cast<size_t>(bytes);
}

void Socket::SetSendTimeoutMs(uint32_t timeout_ms) {
  SetTimeoutOpt(fd_, SO_SNDTIMEO, timeout_ms, "set send timeout");
}

void Socket::SetRecvTimeoutMs(uint32_t timeout_ms) {
  SetTimeoutOpt(fd_, SO_RCVTIMEO, timeout_ms, "set recv timeout");
}

void Socket::SetSendBufferBytes(int bytes) {
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) < 0) {
    ThrowErrno("set send buffer");
  }
}

Socket ConnectTcp(const std::string& host, uint16_t port,
                  int recv_buffer_bytes) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0) {
    throw WireError("resolve " + host + ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  int saved_errno = 0;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved_errno = errno;
      continue;
    }
    if (recv_buffer_bytes > 0) {
      // Must land before connect() so the negotiated TCP window honors it.
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                   sizeof(recv_buffer_bytes));
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = saved_errno;
    ThrowErrno("connect " + host + ":" + std::to_string(port));
  }
  SetNoDelay(fd);
  return Socket(fd);
}

Listener Listener::Bind(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("bind port " + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("listen");
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("getsockname");
  }

  Listener listener;
  listener.fd_ = Socket(fd);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Socket Listener::Accept() {
  for (;;) {
    int fd = ::accept(fd_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // EINVAL/EBADF after Shutdown(), ECONNABORTED on a racing client —
    // either way the accept loop treats an invalid socket as "check the
    // stop flag".
    return Socket();
  }
}

}  // namespace net
}  // namespace pverify
