// End-to-end tests for the TCP transport (src/net): the epoll event-loop server in
// front of an RpcServer, the async pipelined client channel, and the batch-ingest
// path that carries decoded updates from many sockets into ONE group-commit fsync.
// Everything runs over real loopback sockets; connection counts are scaled for CI
// (bench_network pushes the thousand-connection shape).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dirsvc/directory_service_rpc.h"
#include "src/nameserver/name_service_rpc.h"
#include "src/net/client.h"
#include "src/net/ingest.h"
#include "src/net/server.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/storage/sim_env.h"
#include "tests/test_app.h"

namespace sdb::net {
namespace {

using ::sdb::testing::TestApp;

struct EchoRequest {
  std::string text;
  SDB_PICKLE_FIELDS(EchoRequest, text)
};
struct EchoResponse {
  std::string text;
  SDB_PICKLE_FIELDS(EchoResponse, text)
};
struct BlobRequest {
  std::uint32_t size = 0;
  SDB_PICKLE_FIELDS(BlobRequest, size)
};
struct BlobResponse {
  Bytes blob;
  SDB_PICKLE_FIELDS(BlobResponse, blob)
};
struct PutRequest {
  std::string key;
  std::string value;
  SDB_PICKLE_FIELDS(PutRequest, key, value)
};
struct PutAck {
  std::uint8_t ok = 1;
  SDB_PICKLE_FIELDS(PutAck, ok)
};

SimEnv MakeEnv() {
  SimEnvOptions env_options;
  env_options.microvax_cost_model = false;
  return SimEnv(env_options);
}

DatabaseOptions DbOptions(SimEnv& env) {
  DatabaseOptions options;
  options.vfs = &env.fs();
  options.dir = "db";
  options.clock = &env.clock();
  return options;
}

std::unique_ptr<NetChannel> MustConnect(std::uint16_t port,
                                        NetChannelOptions options = {}) {
  auto channel = NetChannel::Connect("127.0.0.1", port, options);
  EXPECT_TRUE(channel.ok()) << channel.status();
  return channel.ok() ? std::move(*channel) : nullptr;
}

TEST(NetServerTest, TypedCallsRoundTripOverRealSockets) {
  rpc::RpcServer rpc;
  rpc::RegisterMethod<EchoRequest, EchoResponse>(
      rpc, "Echo", "Shout", [](const EchoRequest& request) -> Result<EchoResponse> {
        return EchoResponse{request.text + "!"};
      });
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();

  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);
  auto response = rpc::CallMethod<EchoRequest, EchoResponse>(*channel, "Echo", "Shout",
                                                             EchoRequest{"hello"});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->text, "hello!");

  // Application errors travel inside the response, not as transport failures.
  auto missing = rpc::CallMethod<EchoRequest, EchoResponse>(*channel, "Echo", "NoSuch",
                                                            EchoRequest{"x"});
  EXPECT_TRUE(missing.status().Is(ErrorCode::kNotFound)) << missing.status();

  channel->Close();
  (*server)->Stop();
  NetServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GE(stats.frames_in, 2u);
  EXPECT_GE(stats.frames_out, 2u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

TEST(NetServerTest, PipelinedRequestsCompleteOutOfOrder) {
  // One connection, two requests in flight: a slow call submitted first must not
  // head-of-line-block a fast call submitted second — responses are matched by
  // frame id, and dispatch workers run independently.
  std::atomic<bool> slow_finished{false};
  rpc::RpcServer rpc;
  rpc::RegisterMethod<EchoRequest, EchoResponse>(
      rpc, "Speed", "Slow",
      [&slow_finished](const EchoRequest& request) -> Result<EchoResponse> {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        slow_finished.store(true);
        return EchoResponse{"slow:" + request.text};
      });
  rpc::RegisterMethod<EchoRequest, EchoResponse>(
      rpc, "Speed", "Fast", [](const EchoRequest& request) -> Result<EchoResponse> {
        return EchoResponse{"fast:" + request.text};
      });
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();
  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);

  auto slow_id = SubmitCall(*channel, "Speed", "Slow", EchoRequest{"a"});
  ASSERT_TRUE(slow_id.ok()) << slow_id.status();
  // Let a worker pick the slow request up before the fast one is queued, so the
  // two cannot land in one gulp.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto fast_id = SubmitCall(*channel, "Speed", "Fast", EchoRequest{"b"});
  ASSERT_TRUE(fast_id.ok()) << fast_id.status();

  auto fast = AwaitCall<EchoResponse>(*channel, *fast_id);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_EQ(fast->text, "fast:b");
  EXPECT_FALSE(slow_finished.load())
      << "fast response should have arrived while the slow call was still running";

  auto slow = AwaitCall<EchoResponse>(*channel, *slow_id);
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(slow->text, "slow:a");
}

TEST(NetServerTest, LargeResponsesStreamAsChunks) {
  rpc::RpcServer rpc;
  rpc::RegisterMethod<BlobRequest, BlobResponse>(
      rpc, "Blob", "Get", [](const BlobRequest& request) -> Result<BlobResponse> {
        BlobResponse response;
        response.blob.resize(request.size);
        for (std::size_t i = 0; i < response.blob.size(); ++i) {
          response.blob[i] = static_cast<std::uint8_t>(i * 131 + 17);
        }
        return response;
      });
  NetServerOptions options;
  options.chunk_payload = 16 * 1024;
  auto server = NetServer::Start(rpc, options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);

  constexpr std::uint32_t kSize = 300 * 1024;
  auto response = rpc::CallMethod<BlobRequest, BlobResponse>(*channel, "Blob", "Get",
                                                             BlobRequest{kSize});
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->blob.size(), kSize);
  for (std::size_t i = 0; i < response->blob.size(); ++i) {
    ASSERT_EQ(response->blob[i], static_cast<std::uint8_t>(i * 131 + 17)) << i;
  }
  EXPECT_GE((*server)->stats().chunked_responses, 1u);
}

TEST(NetServerTest, ManyConnectionsShareOneServer) {
  rpc::RpcServer rpc;
  rpc::RegisterMethod<EchoRequest, EchoResponse>(
      rpc, "Echo", "Shout", [](const EchoRequest& request) -> Result<EchoResponse> {
        return EchoResponse{request.text};
      });
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();

  // Scaled-down version of the bench's thousand-connection sweep: every channel is
  // its own socket, all open at once, all answered by the one event loop.
  constexpr int kConnections = 64;
  std::vector<std::unique_ptr<NetChannel>> channels;
  for (int i = 0; i < kConnections; ++i) {
    channels.push_back(MustConnect((*server)->port()));
    ASSERT_NE(channels.back(), nullptr) << "connection " << i;
  }
  std::vector<std::uint64_t> ids(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    auto id = SubmitCall(*channels[static_cast<std::size_t>(i)], "Echo", "Shout",
                         EchoRequest{"c" + std::to_string(i)});
    ASSERT_TRUE(id.ok()) << id.status();
    ids[static_cast<std::size_t>(i)] = *id;
  }
  for (int i = 0; i < kConnections; ++i) {
    auto response = AwaitCall<EchoResponse>(*channels[static_cast<std::size_t>(i)],
                                            ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->text, "c" + std::to_string(i));
  }
  EXPECT_EQ((*server)->stats().connections_accepted,
            static_cast<std::uint64_t>(kConnections));
}

TEST(NetServerTest, PipelinedUpdatesFromManySocketsCoalesceFsyncs) {
  // The tentpole claim end to end: updates pipelined on several real connections
  // flow through planner -> CommitMany -> Database::UpdateMany -> group commit, so
  // the whole run costs well under one fsync per update.
  SimEnv env = MakeEnv();
  TestApp app;
  auto db_or = Database::Open(app, DbOptions(env));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  rpc::RpcServer rpc;
  auto sink = std::make_shared<DatabaseUpdateSink>(*db);
  rpc::RegisterUpdateMethod<PutRequest, PutAck>(
      rpc, "Kv", "Put", sink,
      [&app](const PutRequest& request) -> Result<rpc::TypedUpdatePlan<PutAck>> {
        return rpc::TypedUpdatePlan<PutAck>{
            app.PreparePut(request.key, request.value), PutAck{}};
      });
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();

  constexpr int kChannels = 4;
  constexpr int kPerChannel = 32;
  const std::uint64_t syncs_before = db->stats().group_commit.syncs;
  std::vector<std::unique_ptr<NetChannel>> channels;
  for (int c = 0; c < kChannels; ++c) {
    channels.push_back(MustConnect((*server)->port()));
    ASSERT_NE(channels.back(), nullptr);
  }
  // Submit everything before awaiting anything: the event loop keeps reading while
  // workers commit, so queued updates pile into shared ingest batches.
  std::vector<std::vector<std::uint64_t>> ids(kChannels);
  for (int c = 0; c < kChannels; ++c) {
    for (int i = 0; i < kPerChannel; ++i) {
      std::string key = "c" + std::to_string(c) + "-k" + std::to_string(i);
      auto id = SubmitCall(*channels[static_cast<std::size_t>(c)], "Kv", "Put",
                           PutRequest{key, "v-" + key});
      ASSERT_TRUE(id.ok()) << id.status();
      ids[static_cast<std::size_t>(c)].push_back(*id);
    }
  }
  for (int c = 0; c < kChannels; ++c) {
    for (std::uint64_t id : ids[static_cast<std::size_t>(c)]) {
      auto ack = AwaitCall<PutAck>(*channels[static_cast<std::size_t>(c)], id);
      ASSERT_TRUE(ack.ok()) << ack.status();
    }
  }

  constexpr std::uint64_t kTotal = kChannels * kPerChannel;
  EXPECT_EQ(app.state.size(), static_cast<std::size_t>(kTotal));
  DatabaseStats stats = db->stats();
  EXPECT_EQ(stats.group_commit.records_committed, kTotal);
  const std::uint64_t syncs = stats.group_commit.syncs - syncs_before;
  EXPECT_LT(syncs, kTotal) << "pipelined updates should share fsyncs";

  NetServer::Stats net = (*server)->stats();
  EXPECT_EQ(net.ingest_updates, kTotal);
  EXPECT_GE(net.ingest_batches, 1u);
  EXPECT_LT(net.ingest_batches, kTotal)
      << "workers should carry many updates per CommitMany";

  // The acknowledged state survives a reopen intact.
  channels.clear();
  (*server)->Stop();
  db.reset();
  TestApp recovered;
  auto reopened = Database::Open(recovered, DbOptions(env));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(recovered.state, app.state);
}

TEST(NetServerTest, AbruptDisconnectMidPipelineLosesNothingAcknowledged) {
  // A client dies mid-connection with responses still in flight. Every update the
  // client AWAITED must survive recovery; everything else is allowed either way
  // (it was never acknowledged) — but nothing outside the submitted set may appear.
  SimEnv env = MakeEnv();
  TestApp app;
  auto db_or = Database::Open(app, DbOptions(env));
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  std::unique_ptr<Database> db = std::move(*db_or);

  rpc::RpcServer rpc;
  auto sink = std::make_shared<DatabaseUpdateSink>(*db);
  rpc::RegisterUpdateMethod<PutRequest, PutAck>(
      rpc, "Kv", "Put", sink,
      [&app](const PutRequest& request) -> Result<rpc::TypedUpdatePlan<PutAck>> {
        return rpc::TypedUpdatePlan<PutAck>{
            app.PreparePut(request.key, request.value), PutAck{}};
      });
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();

  constexpr int kSubmitted = 60;
  constexpr int kAwaited = 30;
  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kSubmitted; ++i) {
    auto id = SubmitCall(*channel, "Kv", "Put",
                         PutRequest{"k" + std::to_string(i), "v" + std::to_string(i)});
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  for (int i = 0; i < kAwaited; ++i) {
    auto ack = AwaitCall<PutAck>(*channel, ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(ack.ok()) << ack.status();
  }
  // Die abruptly: close the socket with ~half the responses unawaited, then take
  // the server (and the "machine") down.
  channel->Close();
  channel.reset();
  (*server)->Stop();
  db.reset();

  TestApp recovered;
  auto reopened = Database::Open(recovered, DbOptions(env));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (int i = 0; i < kAwaited; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_EQ(recovered.state.count(key), 1u) << "acknowledged key lost: " << key;
    EXPECT_EQ(recovered.state[key], "v" + std::to_string(i));
  }
  for (const auto& [key, value] : recovered.state) {
    ASSERT_EQ(key.rfind('k', 0), 0u) << "phantom key: " << key;
    int i = std::stoi(key.substr(1));
    EXPECT_GE(i, 0);
    EXPECT_LT(i, kSubmitted);
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST(NetServerTest, GarbageBytesTearTheConnectionDownCleanly) {
  rpc::RpcServer rpc;
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Bytes garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0xA5 ^ i);
  }
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  // The decoder condemns the stream and the server closes the socket: the read
  // side sees EOF (or a reset), never a hang and never a response frame.
  char buffer[64];
  ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  EXPECT_LE(n, 0) << "server answered a garbage stream";
  ::close(fd);

  // Stop() flushes the loop, so the counters are settled.
  (*server)->Stop();
  NetServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
}

TEST(NetServerTest, NameServiceStubsWorkUnchangedOverTcp) {
  // The existing typed client (written for LoopbackChannel) pointed at a real
  // socket: NameServer served over TCP with Set/Remove/CompareAndSet registered as
  // batchable updates through the engine's ingest sink.
  SimEnv env = MakeEnv();
  ns::NameServerOptions options;
  options.db.vfs = &env.fs();
  options.db.dir = "ns";
  options.db.clock = &env.clock();
  options.replica_id = "replica-1";
  auto ns_or = ns::NameServer::Open(options);
  ASSERT_TRUE(ns_or.ok()) << ns_or.status();
  std::unique_ptr<ns::NameServer> name_server = std::move(*ns_or);

  rpc::RpcServer rpc;
  ns::RegisterNameService(rpc, *name_server,
                          std::make_shared<DatabaseUpdateSink>(name_server->database()));
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();
  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);

  ns::NameServiceClient client(*channel);
  ASSERT_TRUE(client.Set("machines/fast", "10.0.0.1").ok());
  ASSERT_TRUE(client.Set("machines/slow", "10.0.0.2").ok());
  auto value = client.Lookup("machines/fast");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, "10.0.0.1");
  EXPECT_TRUE(client.CompareAndSet("machines/fast", "10.0.0.1", "10.0.0.3").ok());
  EXPECT_TRUE(
      client.CompareAndSet("machines/fast", "10.0.0.1", "10.0.0.9").Is(
          ErrorCode::kFailedPrecondition));
  ASSERT_TRUE(client.Remove("machines/slow").ok());
  EXPECT_TRUE(client.Lookup("machines/slow").status().Is(ErrorCode::kNotFound));
  auto bindings = client.Export("");
  ASSERT_TRUE(bindings.ok()) << bindings.status();
  ASSERT_EQ(bindings->size(), 1u);
  EXPECT_EQ((*bindings)[0].first, "machines/fast");
  EXPECT_EQ((*bindings)[0].second, "10.0.0.3");
}

TEST(NetServerTest, DirectoryServiceStubsWorkUnchangedOverTcp) {
  SimEnv env = MakeEnv();
  dirsvc::DirectoryServiceOptions options;
  options.db.vfs = &env.fs();
  options.db.dir = "dirsvc";
  options.db.clock = &env.clock();
  auto svc_or = dirsvc::DirectoryService::Open(std::move(options));
  ASSERT_TRUE(svc_or.ok()) << svc_or.status();
  std::unique_ptr<dirsvc::DirectoryService> service = std::move(*svc_or);

  rpc::RpcServer rpc;
  dirsvc::RegisterDirectoryService(rpc, *service);
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();
  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);

  dirsvc::DirectoryServiceClient client(*channel);
  ASSERT_TRUE(client.MkDir("home", "root", 1).ok());
  ASSERT_TRUE(client.CreateFile("home/notes.txt", "root", 42, 2).ok());
  auto attrs = client.Stat("home/notes.txt");
  ASSERT_TRUE(attrs.ok()) << attrs.status();
  EXPECT_EQ(attrs->size, 42u);
  auto names = client.ReadDir("home");
  ASSERT_TRUE(names.ok()) << names.status();
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "notes.txt");
}

TEST(NetServerTest, ClosedChannelFailsPendingAndFutureCalls) {
  rpc::RpcServer rpc;
  rpc::RegisterMethod<EchoRequest, EchoResponse>(
      rpc, "Echo", "Shout", [](const EchoRequest& request) -> Result<EchoResponse> {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return EchoResponse{request.text};
      });
  auto server = NetServer::Start(rpc);
  ASSERT_TRUE(server.ok()) << server.status();
  auto channel = MustConnect((*server)->port());
  ASSERT_NE(channel, nullptr);

  auto id = SubmitCall(*channel, "Echo", "Shout", EchoRequest{"late"});
  ASSERT_TRUE(id.ok()) << id.status();
  std::thread closer([&channel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    channel->Close();
  });
  // Await either collected the response before the close or fails kUnavailable;
  // after Close every new call fails immediately.
  (void)channel->Await(*id);
  closer.join();
  auto after = SubmitCall(*channel, "Echo", "Shout", EchoRequest{"dead"});
  EXPECT_TRUE(after.status().Is(ErrorCode::kUnavailable)) << after.status();
}

// A name server on the simulated file system, served over TCP with its updates
// batched through the engine's ingest sink.
struct NameServiceFixture {
  NameServiceFixture() : env(MakeEnv()) {
    ns::NameServerOptions options;
    options.db.vfs = &env.fs();
    options.db.dir = "ns";
    options.db.clock = &env.clock();
    options.replica_id = "replica-1";
    auto opened = ns::NameServer::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (opened.ok()) {
      server = std::move(*opened);
      ns::RegisterNameService(rpc, *server,
                              std::make_shared<DatabaseUpdateSink>(server->database()));
    }
  }

  SimEnv env;
  std::unique_ptr<ns::NameServer> server;
  rpc::RpcServer rpc;
};

// Encodes one request frame as a pipelining client writes it.
template <typename Req>
void AppendRequestFrame(std::uint64_t id, const std::string& service,
                        const std::string& method, const Req& body, Bytes& wire) {
  rpc::Request request;
  request.call_id = id;
  request.service = service;
  request.method = method;
  PickleWriter writer;
  writer.Write(body);
  request.payload = std::move(writer).TakeRaw();
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = id;
  frame.payload = rpc::EncodeRequest(request);
  AppendFrame(frame, wire);
}

// A blocking socket to the server whose reads give up after `timeout`, so a test
// that waits for a missing response fails instead of hanging. A small receive
// buffer keeps the kernel from absorbing what the server sends.
int ConnectRaw(std::uint16_t port, std::chrono::milliseconds timeout, int receive_buffer) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &receive_buffer, sizeof(receive_buffer));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(NetServerTest, EnquiriesAreNotHeldBehindABlockedWorker) {
  // One dispatch worker, blocked inside a plain (may-block) method. Enquiries on
  // another connection must still be answered: the event loop serves them itself.
  NameServiceFixture fixture;
  ASSERT_NE(fixture.server, nullptr);
  ASSERT_TRUE(fixture.server->Set("hosts/a", "10.0.0.1").ok());

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  rpc::RegisterMethod<EchoRequest, EchoResponse>(
      fixture.rpc, "Test", "Block", [&](const EchoRequest& request) -> Result<EchoResponse> {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        // Bounded, so a failing run still finishes.
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return released; });
        return EchoResponse{request.text};
      });
  auto release = [&] {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  };

  NetServerOptions options;
  options.dispatch_threads = 1;
  auto server = NetServer::Start(fixture.rpc, options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto blocked = MustConnect((*server)->port());
  auto enquirer = MustConnect((*server)->port());
  ASSERT_NE(blocked, nullptr);
  ASSERT_NE(enquirer, nullptr);

  auto block_id = SubmitCall(*blocked, "Test", "Block", EchoRequest{"held"});
  ASSERT_TRUE(block_id.ok()) << block_id.status();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return entered; }))
        << "the worker never picked up the blocking call";
  }

  std::future<Status> lookups = std::async(std::launch::async, [&]() -> Status {
    ns::NameServiceClient client(*enquirer);
    for (int i = 0; i < 20; ++i) {
      Result<std::string> value = client.Lookup("hosts/a");
      SDB_RETURN_IF_ERROR(value.status());
      if (*value != "10.0.0.1") {
        return InternalError("wrong value " + *value);
      }
      SDB_RETURN_IF_ERROR(client.List("hosts").status());
    }
    return OkStatus();
  });
  const bool answered =
      lookups.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  EXPECT_TRUE(answered) << "enquiries waited behind the blocked worker";
  release();
  Status lookup_status = lookups.get();
  EXPECT_TRUE(lookup_status.ok()) << lookup_status;

  auto held = AwaitCall<EchoResponse>(*blocked, *block_id);
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(held->text, "held");
}

TEST(NetServerTest, BackpressureWithWriteThroughAnswersEveryIdOnce) {
  // Tiny thresholds: a client pipelines Lookups (answered on the loop), Sets
  // (answered by workers writing through) and one large chunked response before
  // reading anything. Reads must pause, and every id must be answered exactly once.
  NameServiceFixture fixture;
  ASSERT_NE(fixture.server, nullptr);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        fixture.server->Set("seed/k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  rpc::RegisterMethod<BlobRequest, BlobResponse>(
      fixture.rpc, "Blob", "Get", [](const BlobRequest& request) -> Result<BlobResponse> {
        BlobResponse response;
        response.blob.assign(request.size, 0x5A);
        return response;
      });

  NetServerOptions options;
  options.max_pipelined_requests = 4;
  options.max_outbox_bytes = 512;
  options.chunk_payload = 4 * 1024;
  auto server = NetServer::Start(fixture.rpc, options);
  ASSERT_TRUE(server.ok()) << server.status();

  constexpr std::uint64_t kRequests = 240;
  constexpr std::uint64_t kBlobId = 120;
  constexpr std::uint32_t kBlobSize = 1u << 20;
  const std::string service(ns::kNameService);
  Bytes wire;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    if (id == kBlobId) {
      AppendRequestFrame(id, "Blob", "Get", BlobRequest{kBlobSize}, wire);
    } else if (id % 3 == 0) {
      AppendRequestFrame(id, service, "Set",
                         ns::SetRequest{"new/k" + std::to_string(id), "v"}, wire);
    } else {
      AppendRequestFrame(id, service, "Lookup",
                         ns::LookupRequest{"seed/k" + std::to_string(id % 8)}, wire);
    }
  }

  int fd = ConnectRaw((*server)->port(), std::chrono::milliseconds(5000), 8 * 1024);
  ASSERT_GE(fd, 0);
  // Everything goes out before anything is read (the requests fit in the socket
  // buffers, so this cannot block on the paused server).
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  std::map<std::uint64_t, int> answers;
  std::map<std::uint64_t, Bytes> assembled;
  FrameDecoder decoder;
  std::uint8_t buffer[16 * 1024];
  while (answers.size() < kRequests) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0) << "stream ended or timed out with " << answers.size() << " of "
                    << kRequests << " answered";
    decoder.Feed(ByteSpan(buffer, static_cast<std::size_t>(n)));
    for (;;) {
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) {
        break;
      }
      Frame frame = std::move(**next);
      Bytes& payload = assembled[frame.request_id];
      payload.insert(payload.end(), frame.payload.begin(), frame.payload.end());
      if (frame.type == FrameType::kResponseChunk && !frame.final_chunk()) {
        continue;
      }
      ++answers[frame.request_id];
      Result<rpc::Response> response = rpc::DecodeResponse(AsSpan(payload));
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_TRUE(response->status.ok()) << "id " << frame.request_id << ": "
                                         << response->status;
      if (frame.request_id == kBlobId) {
        PickleReader reader = PickleReader::Raw(AsSpan(response->payload));
        BlobResponse blob;
        ASSERT_TRUE(reader.Read(blob).ok());
        EXPECT_EQ(blob.blob.size(), kBlobSize);
      }
      payload.clear();
    }
  }
  // Nothing more may follow: a duplicate would arrive within the grace period.
  timeval grace{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &grace, sizeof(grace));
  EXPECT_LT(::recv(fd, buffer, sizeof(buffer), 0), 1) << "bytes after the last answer";
  ::close(fd);

  ASSERT_EQ(answers.size(), kRequests);
  for (const auto& [id, count] : answers) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, kRequests);
    EXPECT_EQ(count, 1) << "id " << id;
  }
  EXPECT_GT((*server)->stats().read_pauses, 0u);
  EXPECT_GE((*server)->stats().chunked_responses, 1u);
  for (std::uint64_t id = 3; id <= kRequests; id += 3) {
    if (id != kBlobId) {
      EXPECT_TRUE(fixture.server->Lookup("new/k" + std::to_string(id)).ok()) << id;
    }
  }
}

TEST(NetServerTest, StopWithRequestsInFlightReturnsPromptly) {
  NameServiceFixture fixture;
  ASSERT_NE(fixture.server, nullptr);
  ASSERT_TRUE(fixture.server->Set("hosts/a", "10.0.0.1").ok());
  auto server = NetServer::Start(fixture.rpc);
  ASSERT_TRUE(server.ok()) << server.status();

  constexpr int kChannels = 4;
  std::vector<std::unique_ptr<NetChannel>> channels;
  std::vector<std::vector<std::uint64_t>> ids(kChannels);
  for (int c = 0; c < kChannels; ++c) {
    channels.push_back(MustConnect((*server)->port()));
    ASSERT_NE(channels.back(), nullptr);
  }
  const std::string service(ns::kNameService);
  for (int i = 0; i < 64; ++i) {
    for (int c = 0; c < kChannels; ++c) {
      auto id = i % 4 == 0 ? SubmitCall(*channels[static_cast<std::size_t>(c)], service,
                                        "Set",
                                        ns::SetRequest{"k" + std::to_string(i), "v"})
                           : SubmitCall(*channels[static_cast<std::size_t>(c)], service,
                                        "Lookup", ns::LookupRequest{"hosts/a"});
      ASSERT_TRUE(id.ok()) << id.status();
      ids[static_cast<std::size_t>(c)].push_back(*id);
    }
  }

  auto start = std::chrono::steady_clock::now();
  (*server)->Stop();
  auto stop_time = std::chrono::steady_clock::now() - start;
  EXPECT_LT(stop_time, std::chrono::seconds(5));

  // Every call completes: answered before the stop, or failed by the closed socket
  // (EOF or a reset). None hangs.
  std::size_t answered = 0;
  for (int c = 0; c < kChannels; ++c) {
    for (std::uint64_t id : ids[static_cast<std::size_t>(c)]) {
      answered += channels[static_cast<std::size_t>(c)]->Await(id).ok() ? 1 : 0;
    }
  }
  EXPECT_LE(answered, static_cast<std::size_t>(kChannels) * 64);
}

}  // namespace
}  // namespace sdb::net
