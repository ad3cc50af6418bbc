#include "src/nameserver/name_service_rpc.h"

namespace sdb::ns {

void RegisterNameService(rpc::RpcServer& rpc_server, NameServer& server) {
  rpc::RegisterMethod<LookupRequest, LookupResponse>(
      rpc_server, std::string(kNameService), "Lookup",
      [&server](const LookupRequest& request) -> Result<LookupResponse> {
        SDB_ASSIGN_OR_RETURN(std::string value, server.Lookup(request.path));
        return LookupResponse{std::move(value)};
      });
  rpc::RegisterMethod<ListRequest, ListResponse>(
      rpc_server, std::string(kNameService), "List",
      [&server](const ListRequest& request) -> Result<ListResponse> {
        SDB_ASSIGN_OR_RETURN(std::vector<std::string> labels, server.List(request.path));
        return ListResponse{std::move(labels)};
      });
  rpc::RegisterMethod<SetRequest, Ack>(
      rpc_server, std::string(kNameService), "Set",
      [&server](const SetRequest& request) -> Result<Ack> {
        SDB_RETURN_IF_ERROR(server.Set(request.path, request.value));
        return Ack{};
      });
  rpc::RegisterMethod<RemoveRequest, Ack>(
      rpc_server, std::string(kNameService), "Remove",
      [&server](const RemoveRequest& request) -> Result<Ack> {
        SDB_RETURN_IF_ERROR(server.Remove(request.path));
        return Ack{};
      });
  rpc::RegisterMethod<CompareAndSetRequest, Ack>(
      rpc_server, std::string(kNameService), "CompareAndSet",
      [&server](const CompareAndSetRequest& request) -> Result<Ack> {
        SDB_RETURN_IF_ERROR(
            server.CompareAndSet(request.path, request.expected, request.value));
        return Ack{};
      });
  rpc::RegisterMethod<ExportRequest, ExportResponse>(
      rpc_server, std::string(kNameService), "Export",
      [&server](const ExportRequest& request) -> Result<ExportResponse> {
        SDB_ASSIGN_OR_RETURN(auto bindings, server.Export(request.path));
        return ExportResponse{std::move(bindings)};
      });
  rpc::RegisterMethod<PushUpdateRequest, Ack>(
      rpc_server, std::string(kNameService), "PushUpdate",
      [&server](const PushUpdateRequest& request) -> Result<Ack> {
        SDB_RETURN_IF_ERROR(server.ApplyRemoteUpdate(request.update));
        return Ack{};
      });
  rpc::RegisterMethod<VersionVectorRequest, VersionVectorResponse>(
      rpc_server, std::string(kNameService), "GetVersionVector",
      [&server](const VersionVectorRequest&) -> Result<VersionVectorResponse> {
        return VersionVectorResponse{server.version_vector()};
      });
  rpc::RegisterMethod<UpdatesSinceRequest, UpdatesSinceResponse>(
      rpc_server, std::string(kNameService), "UpdatesSince",
      [&server](const UpdatesSinceRequest& request) -> Result<UpdatesSinceResponse> {
        SDB_ASSIGN_OR_RETURN(std::vector<NameServerUpdate> updates,
                             server.UpdatesSince(request.have));
        return UpdatesSinceResponse{std::move(updates)};
      });
  rpc::RegisterMethod<FullStateRequest, FullStateResponse>(
      rpc_server, std::string(kNameService), "FullState",
      [&server](const FullStateRequest&) -> Result<FullStateResponse> {
        SDB_ASSIGN_OR_RETURN(Bytes state, server.FullState());
        return FullStateResponse{std::move(state)};
      });
  // Lookup and List read the tree under the shared lock and touch no disk: the
  // paper's cheap enquiry, which a transport may serve on its I/O thread. Export,
  // FullState and UpdatesSince stay kOther: they scan or pickle the whole tree.
  // Both are registered above, so marking them cannot fail.
  (void)rpc_server.MarkEnquiry(kNameService, "Lookup");
  (void)rpc_server.MarkEnquiry(kNameService, "List");
}

void RegisterNameService(rpc::RpcServer& rpc_server, NameServer& server,
                         std::shared_ptr<rpc::UpdateSink> update_sink) {
  RegisterNameService(rpc_server, server);
  // Re-register the local update methods as batchable: the planner only decodes
  // and captures (preconditions run inside the prepare, under the update lock), so
  // a transport worker can plan requests from many sockets and commit them in one
  // UpdateSink::CommitMany call. ApplyRemoteUpdate stays Dispatch-only: its
  // AlreadyExists-is-OK dedup semantics live above Database::Update.
  rpc::RegisterUpdateMethod<SetRequest, Ack>(
      rpc_server, std::string(kNameService), "Set", update_sink,
      [&server](const SetRequest& request) -> Result<rpc::TypedUpdatePlan<Ack>> {
        return rpc::TypedUpdatePlan<Ack>{server.PlanSet(request.path, request.value),
                                         Ack{}};
      });
  rpc::RegisterUpdateMethod<RemoveRequest, Ack>(
      rpc_server, std::string(kNameService), "Remove", update_sink,
      [&server](const RemoveRequest& request) -> Result<rpc::TypedUpdatePlan<Ack>> {
        return rpc::TypedUpdatePlan<Ack>{server.PlanRemove(request.path), Ack{}};
      });
  rpc::RegisterUpdateMethod<CompareAndSetRequest, Ack>(
      rpc_server, std::string(kNameService), "CompareAndSet", update_sink,
      [&server](const CompareAndSetRequest& request)
          -> Result<rpc::TypedUpdatePlan<Ack>> {
        return rpc::TypedUpdatePlan<Ack>{
            server.PlanCompareAndSet(request.path, request.expected, request.value),
            Ack{}};
      });
}

Result<std::string> NameServiceClient::Lookup(std::string_view path) {
  SDB_ASSIGN_OR_RETURN(LookupResponse response,
                       (rpc::CallMethod<LookupRequest, LookupResponse>(
                           channel_, kNameService, "Lookup", LookupRequest{std::string(path)})));
  return response.value;
}

Result<std::vector<std::string>> NameServiceClient::List(std::string_view path) {
  SDB_ASSIGN_OR_RETURN(ListResponse response,
                       (rpc::CallMethod<ListRequest, ListResponse>(
                           channel_, kNameService, "List", ListRequest{std::string(path)})));
  return response.labels;
}

Status NameServiceClient::Set(std::string_view path, std::string_view value) {
  return rpc::CallMethod<SetRequest, Ack>(channel_, kNameService, "Set",
                                          SetRequest{std::string(path), std::string(value)})
      .status();
}

Status NameServiceClient::Remove(std::string_view path) {
  return rpc::CallMethod<RemoveRequest, Ack>(channel_, kNameService, "Remove",
                                             RemoveRequest{std::string(path)})
      .status();
}

Status NameServiceClient::CompareAndSet(std::string_view path, std::string_view expected,
                                        std::string_view value) {
  return rpc::CallMethod<CompareAndSetRequest, Ack>(
             channel_, kNameService, "CompareAndSet",
             CompareAndSetRequest{std::string(path), std::string(expected),
                                  std::string(value)})
      .status();
}

Result<std::vector<std::pair<std::string, std::string>>> NameServiceClient::Export(
    std::string_view path) {
  SDB_ASSIGN_OR_RETURN(ExportResponse response,
                       (rpc::CallMethod<ExportRequest, ExportResponse>(
                           channel_, kNameService, "Export",
                           ExportRequest{std::string(path)})));
  return response.bindings;
}

Status NameServiceClient::PushUpdate(const NameServerUpdate& update) {
  return rpc::CallMethod<PushUpdateRequest, Ack>(channel_, kNameService, "PushUpdate",
                                                 PushUpdateRequest{update})
      .status();
}

Result<VersionVector> NameServiceClient::GetVersionVector() {
  SDB_ASSIGN_OR_RETURN(VersionVectorResponse response,
                       (rpc::CallMethod<VersionVectorRequest, VersionVectorResponse>(
                           channel_, kNameService, "GetVersionVector", VersionVectorRequest{})));
  return response.version_vector;
}

Result<std::vector<NameServerUpdate>> NameServiceClient::UpdatesSince(
    const VersionVector& have) {
  SDB_ASSIGN_OR_RETURN(UpdatesSinceResponse response,
                       (rpc::CallMethod<UpdatesSinceRequest, UpdatesSinceResponse>(
                           channel_, kNameService, "UpdatesSince", UpdatesSinceRequest{have})));
  return response.updates;
}

Result<Bytes> NameServiceClient::FullState() {
  SDB_ASSIGN_OR_RETURN(FullStateResponse response,
                       (rpc::CallMethod<FullStateRequest, FullStateResponse>(
                           channel_, kNameService, "FullState", FullStateRequest{})));
  return response.state;
}

}  // namespace sdb::ns
