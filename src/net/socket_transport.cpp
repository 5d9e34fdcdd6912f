#include "net/socket_transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/serialize.h"

namespace sjoin {

namespace {

/// Writes the full buffer; returns false when the peer is gone (EPIPE /
/// ECONNRESET), which the caller treats as a dead peer, not an error.
/// MSG_NOSIGNAL keeps a dying peer from killing us with SIGPIPE.
bool SendAll(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET || errno == EBADF) {
        return false;
      }
      throw std::runtime_error(std::string("socket write failed: ") +
                               std::strerror(errno));
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Returns false on EOF (clean between frames, or the peer died mid-write).
bool ReadAll(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return false;
      throw std::runtime_error(std::string("socket read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Builds one connected AF_INET TCP pair over loopback: listen on an
/// ephemeral 127.0.0.1 port, connect to it, accept. Both ends get
/// TCP_NODELAY so the protocol's small control frames (acks, load reports,
/// checkpoint acks) are not Nagle-delayed behind large tuple batches.
void InetPair(int sv[2]) {
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) ThrowErrno("inet socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the kernel picks a free port
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(lfd);
    ThrowErrno("inet bind failed");
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0 ||
      ::listen(lfd, 1) != 0) {
    ::close(lfd);
    ThrowErrno("inet listen failed");
  }
  int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (cfd < 0) {
    ::close(lfd);
    ThrowErrno("inet socket failed");
  }
  // Loopback connect to a listening socket completes without a concurrent
  // accept: the kernel queues the connection (backlog 1).
  if (::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(lfd);
    ::close(cfd);
    ThrowErrno("inet connect failed");
  }
  int afd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (afd < 0) {
    ::close(cfd);
    ThrowErrno("inet accept failed");
  }
  const int one = 1;
  (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)::setsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sv[0] = cfd;
  sv[1] = afd;
}

}  // namespace

SocketEndpoint::SocketEndpoint(Rank self, std::map<Rank, int> fds)
    : self_(self), fds_(std::move(fds)) {}

SocketEndpoint::~SocketEndpoint() {
  for (auto& [rank, fd] : fds_) {
    if (fd >= 0) ::close(fd);
  }
  for (int fd : dead_fds_) ::close(fd);
}

int SocketEndpoint::FdOf(Rank rank) const {
  std::lock_guard<std::mutex> lock(fd_mu_);
  auto it = fds_.find(rank);
  return it == fds_.end() ? -1 : it->second;
}

void SocketEndpoint::MarkDead(Rank rank) {
  std::lock_guard<std::mutex> lock(fd_mu_);
  auto it = fds_.find(rank);
  if (it == fds_.end() || it->second < 0) return;
  // Park the fd instead of closing: a sender racing this verdict must hit
  // EPIPE on the dead socket, never a recycled descriptor number.
  dead_fds_.push_back(it->second);
  it->second = -1;
}

void SocketEndpoint::Send(Rank to, Message msg) {
  const int fd = FdOf(to);
  if (fd < 0) return;  // dead peer: drop (protocol recovers via timeouts)
  msg.from = self_;

  Writer header(Message::kFrameHeaderBytes);
  EncodeFrameHeader(header, msg);

  std::lock_guard<std::mutex> lock(send_mu_);
  if (!SendAll(fd, header.Bytes().data(), header.Size()) ||
      (!msg.payload.empty() &&
       !SendAll(fd, msg.payload.data(), msg.payload.size()))) {
    MarkDead(to);
    return;
  }
  bytes_sent_ += msg.WireBytes();
  instr_.OnSend(to, msg);
}

std::optional<Message> SocketEndpoint::ReadFrame(int fd) {
  std::uint8_t head[Message::kFrameHeaderBytes];
  if (!ReadAll(fd, head, sizeof(head))) return std::nullopt;
  Reader r(std::span<const std::uint8_t>(head, sizeof(head)));
  Message msg;
  const std::uint32_t len = DecodeFrameHeader(r, msg);
  msg.payload.resize(len);
  if (len > 0 && !ReadAll(fd, msg.payload.data(), len)) {
    return std::nullopt;  // peer died mid-frame: the partial frame is lost
  }
  bytes_received_ += msg.WireBytes();
  return msg;
}

RecvResult SocketEndpoint::RecvFromWire(Duration timeout_us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us < 0 ? 0
                                                                 : timeout_us);
  while (true) {
    std::vector<pollfd> pfds;
    std::vector<Rank> ranks;
    {
      std::lock_guard<std::mutex> lock(fd_mu_);
      for (auto& [rank, fd] : fds_) {
        if (fd < 0) continue;
        pfds.push_back(pollfd{fd, POLLIN, 0});
        ranks.push_back(rank);
      }
    }
    if (pfds.empty()) return RecvResult{RecvStatus::kClosed, {}};

    int wait_ms = -1;
    if (timeout_us == 0) {
      // Zero timeout: a true non-blocking poll -- deliver a frame that is
      // already readable, never sleep (the timeout contract, transport.h).
      wait_ms = 0;
    } else if (timeout_us > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left < 0) return RecvResult{RecvStatus::kTimeout, {}};
      wait_ms = static_cast<int>(left) + 1;  // round up: never busy-spin
    }
    int rc = ::poll(pfds.data(), pfds.size(), wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("poll failed: ") +
                               std::strerror(errno));
    }
    if (rc == 0) return RecvResult{RecvStatus::kTimeout, {}};
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::optional<Message> msg = ReadFrame(pfds[i].fd);
      if (!msg.has_value()) {
        MarkDead(ranks[i]);
        continue;
      }
      return RecvResult{RecvStatus::kOk, std::move(*msg)};
    }
  }
}

RecvResult SocketEndpoint::RecvTimed(Duration timeout_us) {
  if (!stash_.empty()) {
    RecvResult res{RecvStatus::kOk, std::move(stash_.front())};
    stash_.erase(stash_.begin());
    instr_.OnRecv(res.msg.from, res.msg);
    return res;
  }
  RecvResult res = RecvFromWire(timeout_us);
  if (res.Ok()) instr_.OnRecv(res.msg.from, res.msg);
  return res;
}

RecvResult SocketEndpoint::RecvFromTimed(Rank from, Duration timeout_us) {
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (it->from == from) {
      RecvResult res{RecvStatus::kOk, std::move(*it)};
      stash_.erase(it);
      instr_.OnRecv(res.msg.from, res.msg);
      return res;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us < 0 ? 0
                                                                 : timeout_us);
  while (true) {
    if (FdOf(from) < 0) return RecvResult{RecvStatus::kClosed, {}};
    Duration left = -1;
    if (timeout_us == 0) {
      // Zero timeout: drain already-readable frames hunting for the
      // eligible sender (stashing the rest), but never wait.
      left = 0;
    } else if (timeout_us > 0) {
      left = std::chrono::duration_cast<std::chrono::microseconds>(
                 deadline - std::chrono::steady_clock::now())
                 .count();
      if (left < 0) return RecvResult{RecvStatus::kTimeout, {}};
    }
    RecvResult res = RecvFromWire(left);
    if (res.status == RecvStatus::kClosed) {
      // Every peer is gone (or just this one -- checked at loop top).
      if (FdOf(from) < 0) return RecvResult{RecvStatus::kClosed, {}};
      continue;
    }
    if (!res.Ok()) return res;
    if (res.msg.from == from) {
      instr_.OnRecv(res.msg.from, res.msg);
      return res;
    }
    stash_.push_back(std::move(res.msg));
  }
}

SocketMesh::SocketMesh(Rank num_ranks, SocketDomain domain)
    : num_ranks_(num_ranks) {
  fd_.assign(num_ranks, std::vector<int>(num_ranks, -1));
  for (Rank i = 0; i < num_ranks; ++i) {
    for (Rank j = i + 1; j < num_ranks; ++j) {
      int sv[2];
      if (domain == SocketDomain::kInet) {
        InetPair(sv);
      } else if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        ThrowErrno("socketpair failed");
      }
      fd_[i][j] = sv[0];
      fd_[j][i] = sv[1];
    }
  }
}

SocketMesh::~SocketMesh() { CloseAll(); }

std::unique_ptr<SocketEndpoint> SocketMesh::TakeEndpoint(Rank self) {
  assert(self < num_ranks_);
  std::map<Rank, int> mine;
  for (Rank i = 0; i < num_ranks_; ++i) {
    for (Rank j = 0; j < num_ranks_; ++j) {
      int& fd = fd_[i][j];
      if (fd < 0) continue;
      if (i == self) {
        mine[j] = fd;
        fd = -1;
      }
    }
  }
  // Close every fd that belongs to other ranks (we are in the child now).
  CloseAll();
  return std::make_unique<SocketEndpoint>(self, std::move(mine));
}

void SocketMesh::CloseAll() {
  for (auto& row : fd_) {
    for (int& fd : row) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
}

}  // namespace sjoin
