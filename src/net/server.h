// NetServer: the non-blocking event-loop TCP server in front of an RpcServer.
//
// Architecture (one epoll loop + a small dispatch pool):
//
//   sockets --epoll--> event loop --decode + route--> work queue --> dispatch pool
//                       |      ^                                         |
//                       |      +--- outbox + wakeup eventfd (short write)-+
//                       +-- enquiries answered inline     responses written through
//
//   - The event loop owns every socket's reads, accepts and epoll interest, with
//     per-connection FrameDecoders. It decodes each request once and routes it
//     (RpcServer::Find). Enquiries (rpc::MethodKind::kEnquiry: bounded time, no I/O,
//     at most the engine's shared lock) run right there; their responses are
//     gathered per connection and sent with one send at the end of the read pass.
//     Everything else is queued for the pool, and a worker notified, before the
//     pass's enquiries run, so an update never waits behind them. The loop never
//     runs a handler that may block, so a thousand idle connections cost one thread.
//   - Dispatch workers drain the work queue in gulps. Requests whose method is
//     registered as a *batchable update* (RpcServer::RegisterUpdate) are planned and
//     committed together through ONE UpdateSink::CommitMany call — decoded updates
//     from many sockets entering the group-commit pipeline as one ingest batch, so
//     one fsync covers all of them. Other methods go through RpcServer::Dispatch one
//     call at a time. Workers may block (the commit pipeline does); the event loop
//     keeps reading meanwhile, which is what makes pipelining deepen batches.
//   - A worker writes its response through to the socket itself when nothing is
//     queued ahead of it and reads are not paused. Otherwise, and for whatever a
//     short write leaves, the bytes wait on the connection's outbox and the loop is
//     woken to flush them. Every send happens under the connection's mutex from the
//     outbox front, so frames never interleave.
//   - Responses are matched by frame request id, so completion order is free:
//     a slow Export does not head-of-line-block a fast Lookup on the same socket.
//     Responses above options.chunk_payload stream as kResponseChunk frames.
//
// Backpressure (documented in docs/NETWORK.md): a connection with more than
// max_pipelined_requests in flight, or more than max_outbox_bytes of unsent
// response bytes (gathered inline responses included), stops being read (its
// EPOLLIN is parked) until it drains. The TCP window then pushes back on the
// client; nothing is ever dropped.
#ifndef SMALLDB_SRC_NET_SERVER_H_
#define SMALLDB_SRC_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/rpc/server.h"

namespace sdb::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0: pick an ephemeral port (see NetServer::port())

  // Dispatch pool size. Workers block inside the commit pipeline, so this bounds
  // concurrent engine calls, not throughput: queued updates coalesce into the
  // ingest batches the workers carry (ingest_drain at a time). Enquiries do not
  // use the pool.
  int dispatch_threads = 4;

  // Largest request frame accepted from a client.
  std::size_t max_frame_payload = 1u << 20;
  // Responses above this many bytes stream as chunked frames of this size.
  std::size_t chunk_payload = 64u * 1024;
  // Most requests one worker gulp carries into one ingest batch.
  std::size_t ingest_drain = 256;

  // Per-connection backpressure thresholds.
  std::size_t max_pipelined_requests = 1024;
  std::size_t max_outbox_bytes = 4u << 20;
};

class NetServer {
 public:
  // Binds, listens, and starts the event loop and dispatch pool. `rpc` must outlive
  // the server.
  static Result<std::unique_ptr<NetServer>> Start(rpc::RpcServer& rpc,
                                                  NetServerOptions options = {});

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Stops accepting, closes every connection, joins all threads. Idempotent.
  void Stop();

  // The bound port (the ephemeral pick when options.port was 0).
  std::uint16_t port() const;

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t decode_errors = 0;     // corrupt streams torn down
    std::uint64_t chunked_responses = 0;  // responses that streamed as chunks
    std::uint64_t ingest_batches = 0;     // CommitMany calls issued
    std::uint64_t ingest_updates = 0;     // updates those calls carried
    std::uint64_t read_pauses = 0;        // backpressure engagements
  };
  Stats stats() const;

 private:
  class Impl;
  explicit NetServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace sdb::net

#endif  // SMALLDB_SRC_NET_SERVER_H_
