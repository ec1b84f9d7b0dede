//===- FrontDoor.h - Client-facing transport of the daemons -----*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-facing side shared by `validate_server` (ValidationServer)
/// and `validate_fleet` (FleetRouter): the unix-domain and loopback TCP
/// listeners, the `/metrics` + `/healthz` HTTP sidecar, the accept loop,
/// one detached thread per connection reading frames, frame sending, and
/// the connection drain at shutdown. A daemon supplies only what is its
/// own: the per-frame handler (handshake, Submit, ...) and its counters,
/// fed through the hooks below.
///
/// Invariants the two daemons rely on:
///
///   * a connection's fd is closed only under its WriteLock, and set to -1
///     there, so no writer (or the drain's shutdown()) can ever act on a
///     descriptor the kernel has handed to another accept();
///   * a connection deregisters and notifies under one lock, so the drain
///     cannot observe "no connections" and destroy the condition variable
///     before a detached connection thread is done with it;
///   * accepted sockets get a 30 s send timeout: a client that stops
///     reading cannot park an executor or a dispatcher forever (and with it
///     graceful shutdown);
///   * the HTTP sidecar binds with the listeners and stops last, so a
///     scrape during shutdown still answers;
///   * a failed open() leaves nothing behind: every listener it opened is
///     closed and the unix socket path it bound is unlinked.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SERVER_FRONTDOOR_H
#define LLVMMD_SERVER_FRONTDOOR_H

#include "server/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace llvmmd {

class HttpServer;

class FrontDoor {
public:
  struct Config {
    /// Unix-domain socket path (empty = none); unlinked before binding
    /// and on close.
    std::string UnixPath;
    /// Loopback TCP port: -1 = none, 0 = ephemeral.
    int TcpPort = -1;
    /// `HOST:PORT` of the HTTP sidecar (empty = none).
    std::string HttpMetrics;
    /// Per-frame payload ceiling for received frames.
    uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
  };

  struct Connection {
    /// Guarded by WriteLock everywhere except the owning connection
    /// thread's reads: set to -1 under the lock when that thread closes
    /// the socket.
    int Fd = -1;
    /// Serializes writes: job frames come from an executor or dispatcher
    /// while replies come from the connection's own thread. Also fences
    /// the close (above).
    std::mutex WriteLock;
    /// Cleared on the first failed write; later sends are skipped.
    std::atomic<bool> Alive{true};
    /// Daemon protocol state, touched only by the connection thread.
    bool Handshaken = false;

    /// Writes one frame; false (and the connection marked dead) when the
    /// peer is gone or the fd already closed.
    bool send(FrameType T, const std::string &Payload);
    void sendError(ErrorCode Code, const std::string &Message);
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  struct Hooks {
    /// One request frame, on the connection's thread. Returning false
    /// closes the connection.
    std::function<bool(const ConnectionPtr &, const Frame &)> OnFrame;
    /// A frame the reader refused (truncated, oversized or unreadable),
    /// just before the Protocol error reply and the close.
    std::function<void(ReadStatus)> OnFrameError;
    /// A connection was accepted.
    std::function<void()> OnAccept;
  };

  FrontDoor();
  ~FrontDoor();

  FrontDoor(const FrontDoor &) = delete;
  FrontDoor &operator=(const FrontDoor &) = delete;

  /// Binds the configured listeners and the HTTP sidecar, whose /metrics
  /// route serves \p MetricsText. Nothing is accepted until serve(). On
  /// failure returns false with \p Error and leaves nothing open.
  bool open(const Config &C, std::function<std::string()> MetricsText,
            std::string *Error);

  /// Spawns the accept thread; every accepted connection is served by
  /// \p H on its own detached thread.
  void serve(Hooks H);

  /// Async-signal-safe: an atomic store only. The accept loop polls it.
  void requestStop() { AcceptStop = true; }

  /// Stops accepting and joins the accept thread. Established
  /// connections keep being served.
  void stopAccepting();

  /// stopAccepting(), then shuts every connection down and waits for its
  /// thread to deregister, closes the listeners, unlinks the unix path,
  /// and stops the HTTP sidecar last. Idempotent.
  void close();

  /// The kernel-assigned port when TcpPort was 0; -1 before open().
  int boundTcpPort() const { return BoundTcpPort; }
  /// The HTTP sidecar's port; -1 when there is none.
  int boundHttpPort() const;

private:
  /// Listens on the bound socket \p Fd and keeps it; closes it on failure.
  bool listenOn(int Fd);
  void acceptLoop();
  void handleConnection(ConnectionPtr C);

  Config Cfg;
  Hooks H;
  std::vector<int> ListenFds;
  /// Set once the unix socket is bound, so close() unlinks only a path
  /// this front door created.
  bool UnixBound = false;
  int BoundTcpPort = -1;
  std::unique_ptr<HttpServer> Http;
  std::atomic<bool> AcceptStop{false};
  std::thread AcceptThread;

  std::mutex ConnLock;
  std::condition_variable ConnDoneCV;
  std::vector<ConnectionPtr> Conns;
};

} // namespace llvmmd

#endif // LLVMMD_SERVER_FRONTDOOR_H
