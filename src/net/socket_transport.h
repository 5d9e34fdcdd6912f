// Socket transport: the real shared-nothing deployment.
//
// A launcher process creates one connected stream-socket pair per node pair
// *before* forking the node processes (the paper's persistent, reliable
// connections). Two domains are supported, selected per mesh:
//   * kUnix (default) -- AF_UNIX socketpairs: TCP-like stream semantics
//     between local processes, the "multi-process on one machine" deployment
//     this reproduction targets.
//   * kInet -- real AF_INET TCP connections over the loopback interface
//     (listen on 127.0.0.1:0, connect, accept; TCP_NODELAY on both ends so
//     the protocol's small control frames are not Nagle-delayed). The same
//     framing and crash semantics apply; pointing the connect step at remote
//     hosts would spread the same binaries across machines. Enabled in the
//     launcher via SystemConfig::net.use_inet.
//
// Framing: [from u32][type u8][len u32][payload], little endian.
//
// Crash tolerance: a peer closing its socket (cleanly or mid-frame) marks
// that peer dead instead of tearing the endpoint down -- subsequent sends to
// it are silently dropped (MSG_NOSIGNAL, EPIPE swallowed) and receives treat
// it as gone. The epoch protocol reacts to dead peers via the timed receive
// verdicts, not via transport exceptions.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/net_instrument.h"
#include "net/transport.h"

namespace sjoin {

/// Socket domain of a SocketMesh (see file comment).
enum class SocketDomain {
  kUnix,  ///< AF_UNIX socketpairs (local processes)
  kInet,  ///< AF_INET TCP over loopback (real network stack)
};

class SocketEndpoint final : public Transport {
 public:
  /// `fds` maps peer rank -> connected stream socket fd. Takes ownership of
  /// the fds (closes them on destruction).
  SocketEndpoint(Rank self, std::map<Rank, int> fds);
  ~SocketEndpoint() override;

  SocketEndpoint(const SocketEndpoint&) = delete;
  SocketEndpoint& operator=(const SocketEndpoint&) = delete;

  Rank Self() const override { return self_; }

  /// Thread-safe: a node's comm and join threads may both send. Sends to a
  /// dead peer are dropped.
  void Send(Rank to, Message msg) override;
  RecvResult RecvTimed(Duration timeout_us) override;
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override;
  void AttachMetrics(obs::MetricsRegistry* registry) override {
    instr_.Attach(registry);
  }

  /// Bytes sent/received so far (communication accounting in wall mode).
  std::size_t BytesSent() const { return bytes_sent_; }
  std::size_t BytesReceived() const { return bytes_received_; }

 private:
  /// Reads one frame from `fd`; returns nullopt when the peer closed the
  /// connection (cleanly between frames or dead mid-frame).
  std::optional<Message> ReadFrame(int fd);

  /// Blocking/timed read of the next frame from any live fd, bypassing the
  /// stash. `timeout_us < 0` means wait forever.
  RecvResult RecvFromWire(Duration timeout_us);

  /// Current fd of `rank`, or -1 when the peer is dead/unknown.
  int FdOf(Rank rank) const;

  /// Marks `rank` dead; its fd is parked until the destructor (so a
  /// concurrent sender never writes to a recycled descriptor).
  void MarkDead(Rank rank);

  Rank self_;
  mutable std::mutex fd_mu_;    // guards fds_ and dead_fds_
  std::map<Rank, int> fds_;
  std::vector<int> dead_fds_;   // parked until destruction
  std::mutex send_mu_;          // serializes frames from concurrent senders
  std::size_t bytes_sent_ = 0;  // guarded by send_mu_
  std::vector<Message> stash_;
  std::size_t bytes_received_ = 0;
  NetInstrument instr_;
};

/// Builds the full connection mesh for `num_ranks` nodes in the launcher.
/// After forking, each child calls TakeEndpoint(rank) exactly once; it
/// closes every fd that does not belong to that rank.
class SocketMesh {
 public:
  explicit SocketMesh(Rank num_ranks,
                      SocketDomain domain = SocketDomain::kUnix);
  ~SocketMesh();

  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  Rank NumRanks() const { return num_ranks_; }

  /// In the child process for `self`: claims this rank's endpoint and closes
  /// all other fds of the mesh.
  std::unique_ptr<SocketEndpoint> TakeEndpoint(Rank self);

  /// In the launcher after forking all children: closes every fd.
  void CloseAll();

 private:
  Rank num_ranks_;
  // fd_[i][j] is rank i's fd of the (i, j) socketpair; -1 once claimed/closed.
  std::vector<std::vector<int>> fd_;
};

}  // namespace sjoin
