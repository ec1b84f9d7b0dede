//===- FrontDoor.cpp - Client-facing transport of the daemons -----------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "server/FrontDoor.h"

#include "support/Http.h"
#include "support/Telemetry.h"

#include <cstring>

#ifndef _WIN32
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace llvmmd;

bool FrontDoor::Connection::send(FrameType T, const std::string &Payload) {
  if (!Alive.load())
    return false;
  std::lock_guard<std::mutex> G(WriteLock);
  // Re-check under the lock: the owning thread closes (and -1s) the fd
  // under this same lock, so a write can never hit a reused descriptor.
  if (Fd < 0 || !writeFrame(Fd, T, Payload)) {
    Alive = false;
    return false;
  }
  return true;
}

void FrontDoor::Connection::sendError(ErrorCode Code,
                                      const std::string &Message) {
  ErrorPayload E;
  E.Code = Code;
  E.Message = Message;
  send(FrameType::Error, encodeError(E));
}

FrontDoor::FrontDoor() = default;

FrontDoor::~FrontDoor() { close(); }

int FrontDoor::boundHttpPort() const { return Http ? Http->boundPort() : -1; }

bool FrontDoor::listenOn(int Fd) {
#ifndef _WIN32
  if (::listen(Fd, 64) != 0) {
    ::close(Fd);
    return false;
  }
  ListenFds.push_back(Fd);
  return true;
#else
  (void)Fd;
  return false;
#endif
}

bool FrontDoor::open(const Config &C, std::function<std::string()> MetricsText,
                     std::string *Error) {
#ifndef _WIN32
  Cfg = C;
  if (Cfg.UnixPath.empty() && Cfg.TcpPort < 0) {
    if (Error)
      *Error = "no listener configured (need UnixPath and/or TcpPort)";
    return false;
  }
  // Any failure below closes whatever was already opened: a daemon that
  // never serves must not leave a listener a client could connect to.
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    close();
    return false;
  };

  if (!Cfg.UnixPath.empty()) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Cfg.UnixPath.size() >= sizeof(Addr.sun_path))
      return Fail("unix socket path too long: " + Cfg.UnixPath);
    std::strncpy(Addr.sun_path, Cfg.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    // A stale socket file from a crashed daemon would fail the bind; the
    // path is ours by configuration, so reclaim it.
    ::unlink(Cfg.UnixPath.c_str());
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0 ||
        ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      if (Fd >= 0)
        ::close(Fd);
      return Fail("cannot bind unix socket '" + Cfg.UnixPath + "'");
    }
    UnixBound = true;
    if (!listenOn(Fd))
      return Fail("cannot listen on unix socket '" + Cfg.UnixPath + "'");
  }

  if (Cfg.TcpPort >= 0) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    int One = 1;
    if (Fd >= 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(Cfg.TcpPort));
    if (Fd < 0 ||
        ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      if (Fd >= 0)
        ::close(Fd);
      return Fail("cannot bind 127.0.0.1:" + std::to_string(Cfg.TcpPort));
    }
    socklen_t AddrLen = sizeof(Addr);
    ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen);
    BoundTcpPort = ntohs(Addr.sin_port);
    if (!listenOn(Fd))
      return Fail("cannot listen on tcp port " + std::to_string(BoundTcpPort));
  }

  if (!Cfg.HttpMetrics.empty()) {
    // The handlers run on the responder's own connection threads, so
    // MetricsText must be thread-safe.
    Http = std::make_unique<HttpServer>();
    Http->handle("/metrics", [MetricsText] {
      HttpResponse R;
      R.ContentType = PrometheusContentType;
      R.Body = MetricsText();
      return R;
    });
    Http->handle("/healthz", [] {
      HttpResponse R;
      R.Body = "ok\n";
      return R;
    });
    std::string HttpError;
    if (!Http->start(Cfg.HttpMetrics, &HttpError)) {
      Http.reset();
      return Fail(HttpError);
    }
  }
  AcceptStop = false;
  return true;
#else
  (void)C;
  (void)MetricsText;
  if (Error)
    *Error = "the daemons' sockets are POSIX-only";
  return false;
#endif
}

void FrontDoor::serve(Hooks Handlers) {
  H = std::move(Handlers);
  AcceptThread = std::thread([this] { acceptLoop(); });
}

void FrontDoor::stopAccepting() {
  AcceptStop = true;
  if (AcceptThread.joinable())
    AcceptThread.join();
}

void FrontDoor::close() {
#ifndef _WIN32
  stopAccepting();
  // Unblock connection reads; the threads remove themselves from Conns and
  // close their own fds. Fd is read under the connection's write lock: a
  // thread racing us through its close path leaves -1 behind.
  {
    std::unique_lock<std::mutex> G(ConnLock);
    for (const ConnectionPtr &C : Conns) {
      std::lock_guard<std::mutex> WG(C->WriteLock);
      if (C->Fd >= 0)
        ::shutdown(C->Fd, SHUT_RDWR);
    }
    ConnDoneCV.wait(G, [this] { return Conns.empty(); });
  }
  for (int Fd : ListenFds)
    ::close(Fd);
  ListenFds.clear();
  if (UnixBound)
    ::unlink(Cfg.UnixPath.c_str());
  UnixBound = false;
  // The sidecar outlives the drain (a scrape during shutdown still
  // answers) and goes down last.
  if (Http)
    Http->stop();
#endif
}

void FrontDoor::acceptLoop() {
#ifndef _WIN32
  std::vector<pollfd> Polls;
  for (int Fd : ListenFds)
    Polls.push_back({Fd, POLLIN, 0});
  while (!AcceptStop) {
    int N = ::poll(Polls.data(), Polls.size(), /*timeout_ms=*/100);
    if (N <= 0)
      continue;
    for (pollfd &P : Polls) {
      if (!(P.revents & POLLIN))
        continue;
      int Fd = ::accept(P.fd, nullptr, nullptr);
      if (Fd < 0)
        continue;
      // Bounded sends: a client that stops *reading* must not park a
      // writer in sendAll forever (it would also deadlock graceful
      // shutdown, which drains admitted jobs before tearing connections
      // down). On timeout the write fails and the connection is marked
      // dead; the job completes without a consumer.
      timeval SendTimeout{30, 0};
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                   sizeof(SendTimeout));
      auto C = std::make_shared<Connection>();
      C->Fd = Fd;
      {
        std::lock_guard<std::mutex> G(ConnLock);
        Conns.push_back(C);
      }
      if (H.OnAccept)
        H.OnAccept();
      // Detached on purpose: the thread's only shared state is the
      // refcounted Connection and the Conns registry it removes itself
      // from; close() synchronizes on Conns becoming empty, not on joins.
      std::thread([this, C] { handleConnection(C); }).detach();
    }
  }
#endif
}

void FrontDoor::handleConnection(ConnectionPtr C) {
#ifndef _WIN32
  for (;;) {
    Frame F;
    ReadStatus RS = readFrame(C->Fd, F, Cfg.MaxFrameBytes);
    if (RS == ReadStatus::Eof)
      break;
    if (RS != ReadStatus::Ok) {
      // Truncated, oversized or unreadable input: report (best effort,
      // the peer may be gone) and drop the connection. Nothing a client
      // sends may take the daemon down.
      if (H.OnFrameError)
        H.OnFrameError(RS);
      C->sendError(ErrorCode::Protocol, RS == ReadStatus::Oversized
                                            ? "frame exceeds the size limit"
                                            : "truncated or unreadable frame");
      break;
    }
    if (!H.OnFrame(C, F))
      break;
  }
  C->Alive = false;
  {
    // Close under the connection's write lock: a writer mid-stream for
    // this client either finishes its write first or observes Fd == -1,
    // never a descriptor the kernel may already have handed to another
    // accept().
    std::lock_guard<std::mutex> WG(C->WriteLock);
    ::close(C->Fd);
    C->Fd = -1;
  }
  {
    // Deregister and notify under one lock, so the notify completes
    // before close() (or the owner's destructor) can observe Conns empty
    // and tear the condition variable down under this detached thread.
    std::lock_guard<std::mutex> G(ConnLock);
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (Conns[I] == C) {
        Conns.erase(Conns.begin() + I);
        break;
      }
    }
    ConnDoneCV.notify_all();
  }
#endif
}
