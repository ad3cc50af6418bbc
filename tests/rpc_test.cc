// Tests for the RPC substrate: wire format, dispatch, typed stubs, latency model,
// partitions — plus the name service bound over RPC.
#include <gtest/gtest.h>

#include "src/nameserver/name_service_rpc.h"
#include "src/rpc/client.h"
#include "src/rpc/message.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/storage/sim_env.h"

namespace sdb::rpc {
namespace {

TEST(RpcMessageTest, RequestRoundTrip) {
  Request request;
  request.call_id = 77;
  request.service = "Svc";
  request.method = "Do";
  request.payload = {1, 2, 3};
  Result<Request> back = DecodeRequest(AsSpan(EncodeRequest(request)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->call_id, 77u);
  EXPECT_EQ(back->service, "Svc");
  EXPECT_EQ(back->method, "Do");
  EXPECT_EQ(back->payload, (Bytes{1, 2, 3}));
}

TEST(RpcMessageTest, OkResponseRoundTrip) {
  Response response;
  response.call_id = 9;
  response.payload = {9, 8};
  Result<Response> back = DecodeResponse(AsSpan(EncodeResponse(response)));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->status.ok());
  EXPECT_EQ(back->payload, (Bytes{9, 8}));
}

TEST(RpcMessageTest, ErrorResponseCarriesStatus) {
  Response response;
  response.call_id = 3;
  response.status = NotFoundError("no such thing");
  Result<Response> back = DecodeResponse(AsSpan(EncodeResponse(response)));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->status.Is(ErrorCode::kNotFound));
  EXPECT_EQ(back->status.message(), "no such thing");
}

TEST(RpcMessageTest, TruncatedMessagesRejected) {
  Request request;
  request.service = "S";
  request.method = "M";
  Bytes encoded = EncodeRequest(request);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    ByteSpan truncated = AsSpan(encoded).subspan(0, cut);
    EXPECT_FALSE(DecodeRequest(truncated).ok()) << "cut at " << cut;
  }
}

struct EchoRequest {
  std::string text;
  std::int32_t repeat = 0;
  SDB_PICKLE_FIELDS(EchoRequest, text, repeat)
};
struct EchoResponse {
  std::string text;
  SDB_PICKLE_FIELDS(EchoResponse, text)
};

class RpcStackTest : public ::testing::Test {
 protected:
  RpcStackTest() {
    RegisterMethod<EchoRequest, EchoResponse>(
        server_, "Echo", "Echo", [](const EchoRequest& request) -> Result<EchoResponse> {
          if (request.repeat < 0) {
            return InvalidArgumentError("negative repeat");
          }
          std::string out;
          for (int i = 0; i < request.repeat; ++i) {
            out += request.text;
          }
          return EchoResponse{out};
        });
  }

  SimClock clock_;
  RpcServer server_;
};

TEST_F(RpcStackTest, TypedCallRoundTrip) {
  LoopbackChannel channel(server_, {&clock_, 8000});
  auto response =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"ab", 3});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->text, "ababab");
}

TEST_F(RpcStackTest, ApplicationErrorsPropagate) {
  LoopbackChannel channel(server_, {&clock_, 8000});
  auto response =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"x", -1});
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().Is(ErrorCode::kInvalidArgument));
}

TEST_F(RpcStackTest, UnknownMethodIsNotFound) {
  LoopbackChannel channel(server_, {&clock_, 8000});
  auto response =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Missing", EchoRequest{});
  EXPECT_TRUE(response.status().Is(ErrorCode::kNotFound));
}

TEST_F(RpcStackTest, RoundTripChargesLatency) {
  LoopbackChannel channel(server_, {&clock_, 8000});
  Micros before = clock_.NowMicros();
  ASSERT_TRUE(
      (CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1}))
          .ok());
  // The paper's ~8 ms round trip.
  EXPECT_EQ(clock_.NowMicros() - before, 8000);
}

TEST_F(RpcStackTest, DisconnectedChannelIsUnavailable) {
  LoopbackChannel channel(server_, {&clock_, 8000});
  channel.SetConnected(false);
  auto response =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1});
  EXPECT_TRUE(response.status().Is(ErrorCode::kUnavailable));
  channel.SetConnected(true);
  EXPECT_TRUE(
      (CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1}))
          .ok());
}

TEST_F(RpcStackTest, DroppedResponseExecutesButReportsUnavailable) {
  // The half-open failure a real socket produces: the request is delivered and
  // EXECUTED, but the response never comes back. The caller must see the same
  // kUnavailable as a plain partition — and the server-side effect must stand.
  LoopbackChannel channel(server_, {&clock_, 8000});
  channel.SetDropResponses(true);
  auto dropped =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1});
  EXPECT_TRUE(dropped.status().Is(ErrorCode::kUnavailable)) << dropped.status();
  EXPECT_EQ(server_.dispatched(), 1u) << "the dropped call must still have executed";
  EXPECT_EQ(channel.dropped_responses(), 1u);

  // Indistinguishable from SetConnected(false) at the caller...
  channel.SetDropResponses(false);
  channel.SetConnected(false);
  auto partitioned =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1});
  EXPECT_EQ(partitioned.status().code(), dropped.status().code());
  // ...but THAT one never reached the server.
  EXPECT_EQ(server_.dispatched(), 1u);

  channel.SetConnected(true);
  EXPECT_TRUE(
      (CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1}))
          .ok());
}

TEST_F(RpcStackTest, DispatchCountsCalls) {
  LoopbackChannel channel(server_, {&clock_, 0});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 0}))
            .ok());
  }
  EXPECT_EQ(server_.dispatched(), 5u);
  EXPECT_EQ(channel.calls(), 5u);
}

TEST_F(RpcStackTest, GarbageRequestYieldsErrorResponse) {
  Bytes garbage{0xFF, 0xFF, 0xFF};
  Bytes response_bytes = server_.Dispatch(AsSpan(garbage));
  Result<Response> response = DecodeResponse(AsSpan(response_bytes));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->status.ok());
}

// --- routing: method kinds and the decoded-request entry point ---

Request EchoCall(std::string method, EchoRequest body) {
  Request request;
  request.call_id = 77;
  request.service = "Echo";
  request.method = std::move(method);
  PickleWriter writer;
  writer.Write(body);
  request.payload = std::move(writer).TakeRaw();
  return request;
}

TEST_F(RpcStackTest, EnquiryKindSurvivesReRegistration) {
  EXPECT_EQ(server_.Find("Echo", "Echo").kind(), MethodKind::kOther);
  ASSERT_TRUE(server_.MarkEnquiry("Echo", "Echo").ok());
  EXPECT_EQ(server_.Find("Echo", "Echo").kind(), MethodKind::kEnquiry);

  // Replacing the handler through the typed stub (as a tracing wrapper does) keeps
  // the kind, and the new handler serves.
  RegisterMethod<EchoRequest, EchoResponse>(
      server_, "Echo", "Echo", [](const EchoRequest& request) -> Result<EchoResponse> {
        return EchoResponse{"wrapped:" + request.text};
      });
  Route route = server_.Find("Echo", "Echo");
  ASSERT_TRUE(route.found());
  EXPECT_EQ(route.kind(), MethodKind::kEnquiry);
  LoopbackChannel channel(server_, {&clock_, 0});
  auto response =
      CallMethod<EchoRequest, EchoResponse>(channel, "Echo", "Echo", EchoRequest{"a", 1});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->text, "wrapped:a");

  EXPECT_TRUE(server_.MarkEnquiry("Echo", "Missing").Is(ErrorCode::kNotFound));
}

TEST_F(RpcStackTest, BatchableUpdatesCannotBeEnquiries) {
  class NoSink final : public UpdateSink {
   public:
    std::vector<Status> CommitMany(
        std::span<const std::function<Result<Bytes>()>> prepares) override {
      return std::vector<Status>(prepares.size(), OkStatus());
    }
  };
  server_.RegisterUpdate(
      "Echo", "Put",
      [](ByteSpan) -> Result<PlannedUpdate> {
        return PlannedUpdate{[]() -> Result<Bytes> { return Bytes{}; }, Bytes{}};
      },
      std::make_shared<NoSink>());
  EXPECT_EQ(server_.Find("Echo", "Put").kind(), MethodKind::kUpdate);
  EXPECT_TRUE(server_.MarkEnquiry("Echo", "Put").Is(ErrorCode::kFailedPrecondition));
  // A plain re-registration replaces the handler but leaves the update batchable.
  server_.Register("Echo", "Put", [](ByteSpan) -> Result<Bytes> { return Bytes{}; });
  EXPECT_EQ(server_.Find("Echo", "Put").kind(), MethodKind::kUpdate);
}

TEST_F(RpcStackTest, DispatchOfDecodedRequestMatchesDispatchOfBytes) {
  for (const Request& request :
       {EchoCall("Echo", EchoRequest{"xy", 2}), EchoCall("Echo", EchoRequest{"x", -1}),
        EchoCall("Missing", EchoRequest{})}) {
    SCOPED_TRACE(request.method);
    Bytes from_request = server_.Dispatch(request);
    Bytes from_bytes = server_.Dispatch(AsSpan(EncodeRequest(request)));
    EXPECT_EQ(from_request, from_bytes);
    EXPECT_EQ(server_.Dispatch(server_.Find(request.service, request.method), request),
              from_request);
  }
}

TEST_F(RpcStackTest, UnknownMethodAnswersNotFoundOnEveryEntryPoint) {
  EXPECT_FALSE(server_.Find("Echo", "Missing").found());
  EXPECT_FALSE(server_.Find("Nope", "Echo").found());
  Request request = EchoCall("Missing", EchoRequest{});
  Result<Response> response = DecodeResponse(AsSpan(server_.Dispatch(request)));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->call_id, request.call_id);
  EXPECT_TRUE(response->status.Is(ErrorCode::kNotFound)) << response->status;
  EXPECT_TRUE(server_.metrics().empty()) << "an unknown method is not a called method";
}

// --- the name service over RPC (the paper's client path) ---

class NameServiceRpcTest : public ::testing::Test {
 protected:
  NameServiceRpcTest() {
    SimEnvOptions env_options;
    env_ = std::make_unique<SimEnv>(env_options);
    ns::NameServerOptions options;
    options.db.vfs = &env_->fs();
    options.db.dir = "ns";
    options.db.clock = &env_->clock();
    options.cost = &env_->cost_model();
    options.replica_id = "server";
    server_ = *ns::NameServer::Open(options);
    RegisterNameService(rpc_server_, *server_);
    channel_ = std::make_unique<LoopbackChannel>(rpc_server_,
                                                 LoopbackOptions{&env_->clock(), 8000});
    client_ = std::make_unique<ns::NameServiceClient>(*channel_);
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<ns::NameServer> server_;
  RpcServer rpc_server_;
  std::unique_ptr<LoopbackChannel> channel_;
  std::unique_ptr<ns::NameServiceClient> client_;
};

TEST_F(NameServiceRpcTest, RemoteSetAndLookup) {
  ASSERT_TRUE(client_->Set("host/gamma", "10.0.0.3").ok());
  auto value = client_->Lookup("host/gamma");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "10.0.0.3");
  auto labels = client_->List("host");
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, (std::vector<std::string>{"gamma"}));
}

TEST_F(NameServiceRpcTest, RemoteErrorsTravelBack) {
  EXPECT_TRUE(client_->Lookup("ghost").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(client_->Remove("ghost").Is(ErrorCode::kFailedPrecondition));
}

TEST_F(NameServiceRpcTest, RemoteEnquiryCostMatchesPaper) {
  ASSERT_TRUE(client_->Set("a/b/c", "v").ok());
  Micros before = env_->clock().NowMicros();
  ASSERT_TRUE(client_->Lookup("a/b/c").ok());
  double millis = static_cast<double>(env_->clock().NowMicros() - before) / 1000.0;
  // Paper: enquiry 5 ms + 8 ms network = 13 ms for remote clients.
  EXPECT_NEAR(millis, 13.0, 2.0);
}

TEST_F(NameServiceRpcTest, RemoteUpdateCostMatchesPaper) {
  ASSERT_TRUE(client_->Set("warm", "up").ok());
  Micros before = env_->clock().NowMicros();
  // Paper-scale update: a ~300-byte value on a three-component name, matching the
  // record size implied by the paper's 22 ms PickleWrite figure.
  ASSERT_TRUE(client_->Set("org/dept/member", std::string(300, 'v')).ok());
  double millis = static_cast<double>(env_->clock().NowMicros() - before) / 1000.0;
  // Paper: update 54 ms + 8 ms network = 62 ms.
  EXPECT_NEAR(millis, 62.0, 15.0);
}

TEST_F(NameServiceRpcTest, RemoteCompareAndSetAndExport) {
  ASSERT_TRUE(client_->Set("cfg/a", "1").ok());
  ASSERT_TRUE(client_->Set("cfg/b", "2").ok());

  EXPECT_TRUE(client_->CompareAndSet("cfg/a", "wrong", "x").Is(ErrorCode::kFailedPrecondition));
  ASSERT_TRUE(client_->CompareAndSet("cfg/a", "1", "1b").ok());
  EXPECT_EQ(*client_->Lookup("cfg/a"), "1b");

  auto bindings = *client_->Export("cfg");
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0], (std::pair<std::string, std::string>{"cfg/a", "1b"}));
  EXPECT_EQ(bindings[1], (std::pair<std::string, std::string>{"cfg/b", "2"}));
}

TEST_F(NameServiceRpcTest, OnlyLookupAndListAreEnquiries) {
  const std::string service(ns::kNameService);
  EXPECT_EQ(rpc_server_.Find(service, "Lookup").kind(), MethodKind::kEnquiry);
  EXPECT_EQ(rpc_server_.Find(service, "List").kind(), MethodKind::kEnquiry);
  for (const char* method : {"Set", "Remove", "CompareAndSet", "Export", "PushUpdate",
                             "UpdatesSince", "FullState"}) {
    SCOPED_TRACE(method);
    Route route = rpc_server_.Find(service, method);
    ASSERT_TRUE(route.found());
    EXPECT_NE(route.kind(), MethodKind::kEnquiry);
  }
}

TEST_F(NameServiceRpcTest, ReplicationMethodsWork) {
  ASSERT_TRUE(client_->Set("k", "v").ok());
  auto vv = client_->GetVersionVector();
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ((*vv)["server"], 1u);
  auto updates = client_->UpdatesSince({});
  ASSERT_TRUE(updates.ok());
  ASSERT_EQ(updates->size(), 1u);
  EXPECT_EQ((*updates)[0].path, "k");
  auto state = client_->FullState();
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->empty());
}

}  // namespace
}  // namespace sdb::rpc
