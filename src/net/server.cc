#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/net/frame.h"
#include "src/obs/metrics.h"
#include "src/rpc/message.h"

namespace sdb::net {

namespace {

Status Errno(const std::string& what) {
  return IoError(what + ": " + std::strerror(errno));
}

// Process-wide server metrics ("net.server.*" in obs::GlobalRegistry()). Counters
// are always live; the latency histograms record only while obs::Enabled().
struct ServerObs {
  obs::Counter* accepted;
  obs::Counter* closed;
  obs::Gauge* active;
  obs::Counter* frames_in;
  obs::Counter* frames_out;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* decode_errors;
  obs::Counter* chunked_responses;
  obs::Counter* ingest_batches;
  obs::Counter* ingest_updates;
  obs::Counter* read_pauses;
  obs::Histogram* queue_us;       // frame decoded -> worker picked it up
  obs::Histogram* commit_us;      // one ingest CommitMany call
  obs::Histogram* dispatch_us;    // one non-batchable Dispatch call
  obs::Histogram* ingest_batch;   // updates per CommitMany call
};

ServerObs& Obs() {
  static ServerObs o = [] {
    obs::Registry& r = obs::GlobalRegistry();
    return ServerObs{&r.GetCounter("net.server.connections_accepted"),
                     &r.GetCounter("net.server.connections_closed"),
                     &r.GetGauge("net.server.connections_active"),
                     &r.GetCounter("net.server.frames_in"),
                     &r.GetCounter("net.server.frames_out"),
                     &r.GetCounter("net.server.bytes_in"),
                     &r.GetCounter("net.server.bytes_out"),
                     &r.GetCounter("net.server.decode_errors"),
                     &r.GetCounter("net.server.chunked_responses"),
                     &r.GetCounter("net.server.ingest_batches"),
                     &r.GetCounter("net.server.ingest_updates"),
                     &r.GetCounter("net.server.read_pauses"),
                     &r.GetHistogram("net.server.queue_us"),
                     &r.GetHistogram("net.server.commit_us"),
                     &r.GetHistogram("net.server.dispatch_us"),
                     &r.GetHistogram("net.server.ingest_batch")};
  }();
  return o;
}

Micros NowMicros() {
  static WallClock clock;
  return clock.NowMicros();
}

}  // namespace

class NetServer::Impl {
 public:
  Impl(rpc::RpcServer& rpc, NetServerOptions options)
      : rpc_(rpc), options_(std::move(options)) {}

  ~Impl() { Stop(); }

  Status Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return Errno("socket");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return InvalidArgumentError("bad listen address: " + options_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Errno("bind " + options_.host + ":" + std::to_string(options_.port));
    }
    if (::listen(listen_fd_, 1024) != 0) {
      return Errno("listen");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return Errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Errno("epoll_create1");
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      return Errno("eventfd");
    }
    SDB_RETURN_IF_ERROR(Arm(listen_fd_, EPOLLIN));
    SDB_RETURN_IF_ERROR(Arm(wake_fd_, EPOLLIN));

    loop_ = std::thread([this] { EventLoop(); });
    int workers = options_.dispatch_threads > 0 ? options_.dispatch_threads : 1;
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    return OkStatus();
  }

  void Stop() {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) {
      return;
    }
    Wake();
    if (loop_.joinable()) {
      loop_.join();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      draining_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
      wake_fd_ = -1;
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
    }
  }

  std::uint16_t port() const { return port_; }

  Stats stats() const {
    Stats s;
    s.connections_accepted = accepted_.load();
    s.connections_closed = closed_.load();
    s.frames_in = frames_in_.load();
    s.frames_out = frames_out_.load();
    s.bytes_in = bytes_in_.load();
    s.bytes_out = bytes_out_.load();
    s.decode_errors = decode_errors_.load();
    s.chunked_responses = chunked_.load();
    s.ingest_batches = ingest_batches_.load();
    s.ingest_updates = ingest_updates_.load();
    s.read_pauses = read_pauses_.load();
    return s;
  }

 private:
  struct Connection {
    explicit Connection(int conn_fd, std::size_t max_payload)
        : fd(conn_fd), decoder(max_payload) {}

    // Event-loop-only state.
    const int fd;
    FrameDecoder decoder;
    std::uint32_t armed = EPOLLIN;  // the interest set epoll holds for fd
    Bytes gathered;                 // framed enquiry responses of the current read pass

    // Requests decoded but not yet answered (the loop increments; whichever thread
    // answers decrements).
    std::atomic<std::size_t> in_flight{0};

    // Unsent response bytes. Every send on fd happens under mu and from the outbox
    // front, so two frames' bytes never interleave and nothing is sent once closed.
    std::mutex mu;
    std::deque<Bytes> outbox;
    std::size_t outbox_head = 0;   // bytes of outbox.front() already sent
    std::size_t outbox_bytes = 0;  // total unsent bytes across the deque
    bool reading_paused = false;   // set by the loop; workers write through only if false
    bool closed = false;
  };

  // A request for the dispatch pool: a batchable update or a method that may block.
  struct Work {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    rpc::Request request;
    rpc::Route route;
    Micros enqueued = 0;
  };

  // A request the event loop answers itself: an enquiry, or a method nobody
  // registered.
  struct Enquiry {
    std::uint64_t request_id = 0;
    rpc::Request request;
    rpc::Route route;
  };

  Status Arm(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Errno("epoll_ctl add");
    }
    return OkStatus();
  }

  void Wake() {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  // --- event loop ---

  void EventLoop() {
    std::vector<epoll_event> events(256);
    while (!stopped_.load(std::memory_order_acquire)) {
      int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), -1);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        if (fd == listen_fd_) {
          AcceptAll();
        } else if (fd == wake_fd_) {
          std::uint64_t drain;
          while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
          }
          FlushDirty();
        } else {
          auto it = conns_.find(fd);
          if (it == conns_.end()) {
            continue;  // closed earlier in this same wait batch
          }
          std::shared_ptr<Connection> conn = it->second;
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
            CloseConn(conn);
            continue;
          }
          if ((events[i].events & EPOLLOUT) != 0) {
            FlushConn(conn);
          }
          if ((events[i].events & EPOLLIN) != 0) {
            ReadConn(conn);
          }
        }
      }
      if (stopped_.load(std::memory_order_acquire)) {
        break;
      }
    }
    // Loop exit: tear down every connection so blocked client reads fail fast.
    std::vector<std::shared_ptr<Connection>> all;
    all.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) {
      all.push_back(conn);
    }
    for (auto& conn : all) {
      CloseConn(conn);
    }
  }

  void AcceptAll() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN or a transient accept error; epoll will re-report
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Connection>(fd, options_.max_frame_payload);
      conns_.emplace(fd, conn);
      if (!Arm(fd, conn->armed).ok()) {
        conns_.erase(fd);
        ::close(fd);
        continue;
      }
      accepted_.fetch_add(1);
      Obs().accepted->Increment();
      Obs().active->Add(1);
    }
  }

  // One read pass: reads until the socket is drained or backpressure engages, then
  // sends the pass's enquiry responses with one send.
  void ReadConn(const std::shared_ptr<Connection>& conn) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        bytes_in_.fetch_add(static_cast<std::uint64_t>(n));
        Obs().bytes_in->Add(static_cast<std::uint64_t>(n));
        conn->decoder.Feed(ByteSpan(buf, static_cast<std::size_t>(n)));
        if (!ServeFrames(conn)) {
          return;  // connection closed on protocol error
        }
        // A short read drained the socket. An overloaded connection stops here;
        // epoll reports the unread bytes again once reads resume.
        if (static_cast<std::size_t>(n) < sizeof(buf) || Overloaded(*conn)) {
          break;
        }
        continue;
      }
      if (n == 0) {
        CloseConn(conn);
        return;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConn(conn);
      return;
    }
    FlushConn(conn);
  }

  // Decodes every complete frame and routes it. Pool work is queued, and a worker
  // notified, before this pass's enquiries run, so no update waits behind them.
  // Returns false when the connection was closed (corrupt stream or a non-request
  // frame).
  bool ServeFrames(const std::shared_ptr<Connection>& conn) {
    const bool timing = obs::Enabled();
    bool corrupt = false;
    for (;;) {
      Result<std::optional<Frame>> next = conn->decoder.Next();
      if (!next.ok()) {
        corrupt = true;
        break;
      }
      if (!next->has_value()) {
        break;
      }
      Frame frame = std::move(**next);
      if (frame.type != FrameType::kRequest) {
        corrupt = true;
        break;
      }
      frames_in_.fetch_add(1);
      Obs().frames_in->Increment();
      conn->in_flight.fetch_add(1);
      Result<rpc::Request> request = rpc::DecodeRequest(AsSpan(frame.payload));
      if (!request.ok()) {
        rpc::Response response;
        response.status = request.status();
        Answer(*conn, frame.request_id, rpc::EncodeResponse(response));
        continue;
      }
      rpc::Route route = rpc_.Find(request->service, request->method);
      if (!route.found() || route.kind() == rpc::MethodKind::kEnquiry) {
        enquiries_.push_back(
            Enquiry{frame.request_id, std::move(*request), std::move(route)});
      } else {
        pool_batch_.push_back(Work{conn, frame.request_id, std::move(*request),
                                   std::move(route), timing ? NowMicros() : 0});
      }
    }

    if (!pool_batch_.empty()) {
      const std::size_t queued = pool_batch_.size();
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        for (Work& work : pool_batch_) {
          work_.push_back(std::move(work));
        }
      }
      pool_batch_.clear();
      if (queued == 1) {
        queue_cv_.notify_one();
      } else {
        queue_cv_.notify_all();
      }
    }
    if (corrupt) {
      enquiries_.clear();
      decode_errors_.fetch_add(1);
      Obs().decode_errors->Increment();
      CloseConn(conn);
      return false;
    }
    for (Enquiry& enquiry : enquiries_) {
      Micros start = timing ? NowMicros() : 0;
      Bytes response = rpc_.Dispatch(enquiry.route, enquiry.request);
      if (timing) {
        Obs().dispatch_us->Record(NowMicros() - start);
      }
      Answer(*conn, enquiry.request_id, response);
    }
    enquiries_.clear();
    return true;
  }

  // Gathers a response the loop produced; FlushConn sends the pass's gathering.
  void Answer(Connection& conn, std::uint64_t request_id, const Bytes& encoded_response) {
    AppendResponse(request_id, encoded_response, conn.gathered);
    conn.in_flight.fetch_sub(1);
  }

  bool Overloaded(Connection& conn) {
    std::lock_guard<std::mutex> lock(conn.mu);
    return OverloadedLocked(conn);
  }

  // Responses not yet sent, gathered ones included, count toward the thresholds.
  // Caller holds conn.mu.
  bool OverloadedLocked(const Connection& conn) const {
    return conn.in_flight.load() >= options_.max_pipelined_requests ||
           conn.outbox_bytes + conn.gathered.size() >= options_.max_outbox_bytes;
  }

  // Queues the gathered responses behind the outbox, writes as much as the socket
  // takes, and re-derives the connection's epoll interest.
  void FlushConn(const std::shared_ptr<Connection>& conn) {
    bool fatal;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) {
        return;
      }
      if (!conn->gathered.empty()) {
        QueueLocked(*conn, std::exchange(conn->gathered, Bytes()));
      }
      fatal = !DrainLocked(*conn);
    }
    if (fatal) {
      CloseConn(conn);
      return;
    }
    UpdateInterest(*conn);
  }

  // Applies backpressure (reads pause while the connection is overloaded) and asks
  // for EPOLLOUT while the outbox holds bytes. epoll_ctl runs only when the
  // interest set changes.
  void UpdateInterest(Connection& conn) {
    std::uint32_t events;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      bool overloaded = OverloadedLocked(conn);
      if (overloaded && !conn.reading_paused) {
        read_pauses_.fetch_add(1);
        Obs().read_pauses->Increment();
      }
      conn.reading_paused = overloaded;
      events = (overloaded ? 0u : EPOLLIN) | (conn.outbox.empty() ? 0u : EPOLLOUT);
    }
    if (events != conn.armed) {
      epoll_event ev{};
      ev.events = events;
      ev.data.fd = conn.fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.armed = events;
    }
  }

  void FlushDirty() {
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      dirty.swap(flush_list_);
    }
    for (const auto& conn : dirty) {
      FlushConn(conn);
    }
  }

  void CloseConn(const std::shared_ptr<Connection>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) {
        return;
      }
      conn->closed = true;
      conn->outbox.clear();
      conn->outbox_bytes = 0;
      conn->outbox_head = 0;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    closed_.fetch_add(1);
    Obs().closed->Increment();
    Obs().active->Add(-1);
  }

  // --- writing, from the loop and from workers ---

  // Appends the response's frames to `wire`: one kResponse frame, or kResponseChunk
  // frames above options.chunk_payload.
  void AppendResponse(std::uint64_t request_id, const Bytes& encoded_response,
                      Bytes& wire) {
    std::vector<Frame> frames =
        ChunkResponse(request_id, AsSpan(encoded_response), options_.chunk_payload);
    if (frames.size() > 1) {
      chunked_.fetch_add(1);
      Obs().chunked_responses->Increment();
    }
    for (const Frame& frame : frames) {
      AppendFrame(frame, wire);
    }
    frames_out_.fetch_add(frames.size());
    Obs().frames_out->Add(frames.size());
  }

  // Caller holds conn.mu.
  static void QueueLocked(Connection& conn, Bytes wire) {
    conn.outbox_bytes += wire.size();
    conn.outbox.push_back(std::move(wire));
  }

  // Sends from the outbox front until it is empty or the socket is full. Caller
  // holds conn.mu and has checked that the connection is open. Returns false on a
  // fatal socket error.
  bool DrainLocked(Connection& conn) {
    while (!conn.outbox.empty()) {
      Bytes& front = conn.outbox.front();
      const std::uint8_t* data = front.data() + conn.outbox_head;
      std::size_t len = front.size() - conn.outbox_head;
      ssize_t n = ::send(conn.fd, data, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n));
      Obs().bytes_out->Add(static_cast<std::uint64_t>(n));
      conn.outbox_bytes -= static_cast<std::size_t>(n);
      conn.outbox_head += static_cast<std::size_t>(n);
      if (conn.outbox_head == front.size()) {
        conn.outbox.pop_front();
        conn.outbox_head = 0;
      }
    }
    return true;
  }

  // --- dispatch pool ---

  void WorkerLoop() {
    for (;;) {
      std::vector<Work> gulp;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] { return draining_ || !work_.empty(); });
        if (work_.empty()) {
          return;  // draining and dry
        }
        std::size_t n = std::min(work_.size(), options_.ingest_drain);
        gulp.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          gulp.push_back(std::move(work_.front()));
          work_.pop_front();
        }
      }
      ProcessGulp(gulp);
    }
  }

  // One ingest cycle: plan every batchable update in the gulp, commit each sink's
  // plans through ONE CommitMany call (one group-commit ingest batch covering
  // requests from many sockets), dispatch everything else individually.
  void ProcessGulp(std::vector<Work>& gulp) {
    const bool timing = obs::Enabled();
    if (timing) {
      Micros now = NowMicros();
      for (const Work& work : gulp) {
        Obs().queue_us->Record(now - work.enqueued);
      }
    }

    struct Planned {
      Work* work = nullptr;
      rpc::PlannedUpdate plan;
    };
    struct SinkGroup {
      std::shared_ptr<rpc::UpdateSink> sink;
      std::vector<Planned> items;
    };
    std::map<rpc::UpdateSink*, SinkGroup> groups;

    for (Work& work : gulp) {
      if (work.route.kind() != rpc::MethodKind::kUpdate) {
        Micros start = timing ? NowMicros() : 0;
        Bytes response = rpc_.Dispatch(work.route, work.request);
        if (timing) {
          Obs().dispatch_us->Record(NowMicros() - start);
        }
        Respond(work, response);
        continue;
      }
      const rpc::UpdateEntry& entry = work.route.update();
      Result<rpc::PlannedUpdate> plan = entry.planner(AsSpan(work.request.payload));
      if (!plan.ok()) {
        rpc::Response response;
        response.call_id = work.request.call_id;
        response.status = plan.status();
        Respond(work, rpc::EncodeResponse(response));
        continue;
      }
      SinkGroup& group = groups[entry.sink.get()];
      group.sink = entry.sink;
      group.items.push_back(Planned{&work, std::move(*plan)});
    }

    for (auto& [key, group] : groups) {
      std::vector<std::function<Result<Bytes>()>> prepares;
      prepares.reserve(group.items.size());
      for (Planned& planned : group.items) {
        prepares.push_back(std::move(planned.plan.prepare));
      }
      Micros start = timing ? NowMicros() : 0;
      std::vector<Status> outcomes =
          group.sink->CommitMany({prepares.data(), prepares.size()});
      if (timing) {
        Obs().commit_us->Record(NowMicros() - start);
        Obs().ingest_batch->Record(static_cast<Micros>(group.items.size()));
      }
      ingest_batches_.fetch_add(1);
      ingest_updates_.fetch_add(group.items.size());
      Obs().ingest_batches->Increment();
      Obs().ingest_updates->Add(group.items.size());
      for (std::size_t i = 0; i < group.items.size(); ++i) {
        Planned& planned = group.items[i];
        rpc::Response response;
        response.call_id = planned.work->request.call_id;
        if (i < outcomes.size()) {
          response.status = outcomes[i];
        } else {
          response.status = InternalError("ingest sink returned too few outcomes");
        }
        if (response.status.ok()) {
          response.payload = std::move(planned.plan.response_payload);
        }
        Respond(*planned.work, rpc::EncodeResponse(response));
      }
    }
  }

  // Frames the response and writes it through to the socket when nothing is queued
  // ahead of it and reads are not paused. Otherwise, or when the socket takes only
  // part of it, the rest waits on the outbox and the event loop is woken to flush
  // it and re-check backpressure.
  void Respond(Work& work, const Bytes& encoded_response) {
    Bytes wire;
    AppendResponse(work.request_id, encoded_response, wire);
    Connection& conn = *work.conn;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.in_flight.fetch_sub(1);
      if (conn.closed) {
        return;
      }
      const bool write_through = conn.outbox.empty() && !conn.reading_paused;
      QueueLocked(conn, std::move(wire));
      if (write_through && DrainLocked(conn) && conn.outbox.empty()) {
        return;
      }
    }
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_list_.push_back(work.conn);
    }
    Wake();
  }

  rpc::RpcServer& rpc_;
  const NetServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;

  std::thread loop_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  // Event-loop-owned connection table (fd -> connection), and the current read
  // pass's routed requests (reused across passes).
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::vector<Work> pool_batch_;
  std::vector<Enquiry> enquiries_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> work_;
  bool draining_ = false;

  std::mutex flush_mu_;
  std::vector<std::shared_ptr<Connection>> flush_list_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> chunked_{0};
  std::atomic<std::uint64_t> ingest_batches_{0};
  std::atomic<std::uint64_t> ingest_updates_{0};
  std::atomic<std::uint64_t> read_pauses_{0};
};

NetServer::NetServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

NetServer::~NetServer() = default;

Result<std::unique_ptr<NetServer>> NetServer::Start(rpc::RpcServer& rpc,
                                                    NetServerOptions options) {
  auto impl = std::make_unique<Impl>(rpc, std::move(options));
  SDB_RETURN_IF_ERROR(impl->Start());
  return std::unique_ptr<NetServer>(new NetServer(std::move(impl)));
}

void NetServer::Stop() { impl_->Stop(); }

std::uint16_t NetServer::port() const { return impl_->port(); }

NetServer::Stats NetServer::stats() const { return impl_->stats(); }

}  // namespace sdb::net
