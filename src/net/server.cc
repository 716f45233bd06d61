#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include <unordered_map>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace moqo {
namespace net {

namespace {

// One run being served to one connection.
struct ConnRun {
  std::shared_ptr<SnapshotSubscription> subscription;
  bool stream = false;  // Forward snapshot frames to the client.
};

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

}  // namespace

OptimizerServer::OptimizerServer(OptimizerService* service,
                                 ServerOptions options)
    : service_(service), options_(std::move(options)) {}

OptimizerServer::~OptimizerServer() { Shutdown(); }

Status OptimizerServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  if (::pipe(stop_pipe_) != 0) {
    return Status::Internal(std::string("pipe: ") + strerror(errno));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(&listen_fd_);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st =
        Status::Internal(std::string("bind: ") + strerror(errno));
    CloseFd(&listen_fd_);
    return st;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const Status st =
        Status::Internal(std::string("listen: ") + strerror(errno));
    CloseFd(&listen_fd_);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    const Status st =
        Status::Internal(std::string("getsockname: ") + strerror(errno));
    CloseFd(&listen_fd_);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

uint16_t OptimizerServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

void OptimizerServer::BeginDrain() {
  service_->BeginDrain();
  // The acceptor keeps running (it owns the thread bookkeeping) but
  // refuses the handshake for every connection arriving from here on.
}

void OptimizerServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    // Wake the acceptor and every connection poller (POLLHUP), and
    // unblock any thread stuck in a socket read/write on a stalled peer.
    CloseFd(&stop_pipe_[1]);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (Conn& c : conns_) {
      if (!c.done && c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  // The acceptor has exited: conns_ is stable now (only connection
  // threads flip their own `done` flag, under mu_).
  for (Conn& c : conns_) {
    if (c.thread.joinable()) c.thread.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  conns_.clear();
  CloseFd(&listen_fd_);
  CloseFd(&stop_pipe_[0]);
}

size_t OptimizerServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Conn& c : conns_) {
    if (!c.done) ++n;
  }
  return n;
}

void OptimizerServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Shutdown.
    if (fds[0].revents == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion is transient (fds free up as connections
        // drain): keep the daemon accepting rather than silently
        // wedging it. Back off on the stop pipe so Shutdown stays
        // prompt even while the retry loop spins.
        std::fprintf(stderr,
                     "OptimizerServer: accept4: %s (transient, retrying)\n",
                     strerror(errno));
        pollfd stop = {stop_pipe_[0], POLLIN, 0};
        if (::poll(&stop, 1, /*timeout_ms=*/100) > 0) return;
        continue;
      }
      {
        // Shutdown tears the listener down under us (shutdown(2) on
        // listen_fd_); that exit is expected and silent.
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_) return;
      }
      std::fprintf(stderr,
                   "OptimizerServer: accept4: %s (fatal, acceptor exiting; "
                   "no further connections will be served)\n",
                   strerror(errno));
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      const int sndbuf = static_cast<int>(options_.send_buffer_bytes);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      ::close(fd);
      return;
    }
    // Reap finished connections so conns_ stays proportional to the
    // live count, not the total ever accepted.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->done) {
        it->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      // Over the connection cap: one best-effort error frame, then
      // close. The client sees kShedding before its handshake.
      (void)WriteFrame(
          fd, MsgType::kError,
          EncodeError(0, Status::Shedding("too many connections", 0)));
      ::close(fd);
      continue;
    }
    conns_.emplace_back();
    Conn* conn = &conns_.back();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void OptimizerServer::ServeConnection(Conn* conn) {
  const int fd = conn->fd;
  const int stop_fd = stop_pipe_[0];
  std::unordered_map<QueryId, ConnRun> runs;
  int wake_fd = -1;

  // Everything below funnels through these two lambdas so the cleanup
  // path (cancel orphaned runs, close fds, mark the slot reapable) is
  // written once.
  auto cleanup = [&] {
    for (auto& [id, run] : runs) {
      // Detach the wakeup fd before cancelling: cancelling a query whose
      // run is stepping finalizes it at that turn's boundary, and that
      // finalization's Push must not poke a descriptor this thread is
      // about to close (the subscription owns a dup, so detaching here
      // closes the last reference it holds).
      run.subscription->SetWakeupFd(-1);
      service_->Cancel(id);
    }
    runs.clear();
    {
      // Mark reapable before closing: once done is set (under mu_),
      // Shutdown skips this connection's fds, so the close below can
      // never race a ::shutdown on a recycled descriptor.
      std::lock_guard<std::mutex> lock(mu_);
      conn->done = true;
    }
    if (wake_fd >= 0) ::close(wake_fd);
    ::close(fd);
  };
  // Drains every run's subscription queue: forwards snapshots (if the
  // client asked), and on a final event sends the terminal RESULT and
  // retires the run. Returns false on a dead client connection.
  auto pump = [&]() -> bool {
    for (auto it = runs.begin(); it != runs.end();) {
      ConnRun& run = it->second;
      bool finished = false;
      while (auto event = run.subscription->Poll()) {
        if (run.stream) {
          if (!WriteFrame(fd, MsgType::kSnapshot,
                          EncodeSnapshot(it->first, *event))
                   .ok()) {
            return false;
          }
        }
        if (event->is_final) {
          // The final event was pushed by finalization, so the result
          // is already recorded: this Wait returns immediately.
          QueryResult result = service_->Wait(it->first);
          if (!WriteFrame(fd, MsgType::kResult, EncodeResult(result)).ok()) {
            return false;
          }
          finished = true;
          break;
        }
      }
      it = finished ? runs.erase(it) : std::next(it);
    }
    return true;
  };

  // Handshake: the first frame must be a version-compatible HELLO.
  {
    Frame frame;
    uint32_t version = 0;
    Status st = ReadFrame(fd, &frame);
    if (st.ok() && frame.type == static_cast<uint8_t>(MsgType::kHello)) {
      st = DecodeHello(frame, &version);
    } else if (st.ok()) {
      st = Status::InvalidArgument("expected HELLO");
    }
    if (st.ok() && version != kWireVersion) {
      st = Status::FailedPrecondition(
          "wire version mismatch: server speaks v" +
          std::to_string(kWireVersion));
    }
    if (st.ok() && service_->draining()) {
      st = Status::Draining("server is draining; connect to another replica");
    }
    if (!st.ok()) {
      (void)WriteFrame(fd, MsgType::kError, EncodeError(0, st));
      cleanup();
      return;
    }
    if (!WriteFrame(fd, MsgType::kHelloOk,
                    EncodeHelloOk(kWireVersion, kServiceApiVersion))
             .ok()) {
      cleanup();
      return;
    }
  }

  wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    (void)WriteFrame(fd, MsgType::kError,
                     EncodeError(0, Status::Internal("eventfd failed")));
    cleanup();
    return;
  }

  for (;;) {
    pollfd fds[3];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    fds[2] = {stop_fd, POLLIN, 0};
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[2].revents != 0) break;  // Shutdown.
    if (fds[1].revents != 0) {
      uint64_t drained = 0;
      // Reset the eventfd counter; new pushes re-arm it.
      (void)!::read(wake_fd, &drained, sizeof(drained));
      if (!pump()) break;
    }
    if (fds[0].revents == 0) continue;

    Frame frame;
    if (!ReadFrame(fd, &frame).ok()) break;  // EOF or a broken frame.
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kSubmit: {
        uint64_t tag = 0;
        SubmitRequest request;
        bool stream = false;
        Status st = DecodeSubmit(frame, &tag, &request, &stream);
        if (st.ok()) {
          StatusOr<SubmitResponse> response =
              service_->Submit(std::move(request));
          if (!response.ok()) {
            st = response.status();
          } else {
            const SubmitResponse& r = response.value();
            ConnRun run;
            run.subscription = r.subscription;
            run.stream = stream;
            run.subscription->SetWakeupFd(wake_fd);
            runs.emplace(r.id, std::move(run));
            // Events pushed before SetWakeupFd landed (a fast first
            // step, or a cache hit's final event) poked no eventfd:
            // drain once after SUBMIT_OK so nothing waits on a poke
            // that already happened. Both failures mean a dead socket —
            // no error frame, just drop the connection.
            if (!WriteFrame(fd, MsgType::kSubmitOk, EncodeSubmitOk(tag, r))
                     .ok() ||
                !pump()) {
              cleanup();
              return;
            }
          }
        }
        if (!st.ok()) {
          if (!WriteFrame(fd, MsgType::kError, EncodeError(tag, st)).ok()) {
            cleanup();
            return;
          }
        }
        break;
      }
      case MsgType::kCancel: {
        uint64_t tag = 0;
        QueryId id = kInvalidQueryId;
        Status st = DecodeCancel(frame, &tag, &id);
        if (st.ok() && runs.find(id) == runs.end()) {
          // Ids are scoped to the submitting connection: one tenant can
          // never cancel (or probe) another's runs.
          st = Status::NotFound("unknown run id on this connection");
        }
        Status wst;
        if (st.ok()) {
          wst = WriteFrame(fd, MsgType::kCancelOk,
                           EncodeCancelOk(tag, service_->Cancel(id)));
          // Cancellation finalizes the run; its terminal event arrives
          // through the subscription and pump() sends the RESULT.
          if (wst.ok() && !pump()) wst = Status::Internal("pump failed");
        } else {
          wst = WriteFrame(fd, MsgType::kError, EncodeError(tag, st));
        }
        if (!wst.ok()) {
          cleanup();
          return;
        }
        break;
      }
      default: {
        // Unknown or out-of-sequence frame: protocol error, drop the
        // connection (best-effort error frame first).
        (void)WriteFrame(
            fd, MsgType::kError,
            EncodeError(0, Status::InvalidArgument("unexpected frame type")));
        cleanup();
        return;
      }
    }
  }
  cleanup();
}

}  // namespace net
}  // namespace moqo
