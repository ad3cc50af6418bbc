#include "nsbench/layers.h"

#include "nsbench/spans.h"
#include "src/nameserver/name_service_rpc.h"
#include "src/rpc/client.h"

namespace nsbench {
namespace {

using sdb::ByteSpan;
using sdb::Bytes;
using sdb::Result;
using sdb::Status;

SpanName Context() {
  const SpanRecord* current = CurrentSpan();
  return current == nullptr ? SpanName::kStorageOther : current->name;
}

std::uint64_t ElapsedUs(std::int64_t start_ns) {
  return static_cast<std::uint64_t>((NowNs() - start_ns) / 1000);
}

class TimingFile final : public sdb::File {
 public:
  TimingFile(std::unique_ptr<sdb::File> base, StorageStats& stats)
      : base_(std::move(base)), stats_(stats) {}

  Result<Bytes> ReadAt(std::uint64_t offset, std::size_t length) override {
    SpanName context = Context();
    ScopedSpan span(SpanName::kStorageRead);
    std::int64_t start = NowNs();
    Result<Bytes> bytes = base_->ReadAt(offset, length);
    if (span.active() && context == SpanName::kCoreOpen && bytes.ok()) {
      stats_.open_read_us += ElapsedUs(start);
      stats_.open_read_bytes += bytes->size();
    }
    return bytes;
  }

  Status Append(ByteSpan data) override {
    SpanName context = Context();
    ScopedSpan span(SpanName::kStorageAppend);
    if (span.active() && context == SpanName::kCoreCommitMany) {
      stats_.commit_append_bytes += data.size();
    }
    return base_->Append(data);
  }

  Status WriteAt(std::uint64_t offset, ByteSpan data) override {
    ScopedSpan span(SpanName::kStorageOther);
    return base_->WriteAt(offset, data);
  }

  Status Truncate(std::uint64_t new_size) override {
    ScopedSpan span(SpanName::kStorageOther);
    return base_->Truncate(new_size);
  }

  Status Sync() override {
    SpanName context = Context();
    ScopedSpan span(SpanName::kStorageSync);
    std::int64_t start = NowNs();
    Status status = base_->Sync();
    if (span.active() && context == SpanName::kCoreCommitMany) {
      std::uint64_t us = ElapsedUs(start);
      stats_.commit_sync_us.Record(static_cast<std::int64_t>(us));
      stats_.commit_sync_total_us += us;
    }
    return status;
  }

  Result<std::uint64_t> Size() override { return base_->Size(); }

  Status Close() override {
    ScopedSpan span(SpanName::kStorageOther);
    return base_->Close();
  }

 private:
  std::unique_ptr<sdb::File> base_;
  StorageStats& stats_;
};

}  // namespace

Result<std::unique_ptr<sdb::File>> TimingVfs::Open(std::string_view path,
                                                   sdb::OpenMode mode) {
  ScopedSpan span(SpanName::kStorageOther);
  SDB_ASSIGN_OR_RETURN(std::unique_ptr<sdb::File> file, base_.Open(path, mode));
  return std::unique_ptr<sdb::File>(new TimingFile(std::move(file), stats_));
}

Status TimingVfs::Delete(std::string_view path) {
  ScopedSpan span(SpanName::kStorageOther);
  return base_.Delete(path);
}

Status TimingVfs::Rename(std::string_view from, std::string_view to) {
  SpanName context = Context();
  ScopedSpan span(SpanName::kStorageRename);
  if (span.active() && context == SpanName::kCoreCheckpoint) {
    ++stats_.checkpoint_renames;
  }
  return base_.Rename(from, to);
}

Result<bool> TimingVfs::Exists(std::string_view path) {
  ScopedSpan span(SpanName::kStorageOther);
  return base_.Exists(path);
}

Result<std::vector<std::string>> TimingVfs::List(std::string_view dir) {
  ScopedSpan span(SpanName::kStorageOther);
  return base_.List(dir);
}

Status TimingVfs::CreateDir(std::string_view path) {
  ScopedSpan span(SpanName::kStorageOther);
  return base_.CreateDir(path);
}

Status TimingVfs::SyncDir(std::string_view dir) {
  SpanName context = Context();
  ScopedSpan span(SpanName::kStorageSyncDir);
  if (span.active() && context == SpanName::kCoreCheckpoint) {
    ++stats_.checkpoint_syncdirs;
  }
  return base_.SyncDir(dir);
}

std::vector<Status> TimingSink::CommitMany(
    std::span<const std::function<Result<Bytes>()>> prepares) {
  ScopedSpan span(SpanName::kCoreCommitMany, static_cast<std::uint32_t>(prepares.size()));
  if (!span.active()) {
    return inner_->CommitMany(prepares);
  }
  // The wrapped closures refer to `prepares`, which outlives this call; the engine
  // runs them (on whichever caller leads the group commit) before CommitMany returns.
  std::vector<std::function<Result<Bytes>()>> timed;
  timed.reserve(prepares.size());
  for (const auto& prepare : prepares) {
    timed.push_back([&prepare, this]() -> Result<Bytes> {
      ScopedSpan prepare_span(SpanName::kNsPrepare);
      std::int64_t start = NowNs();
      Result<Bytes> record = prepare();
      stats_.prepare_us.Record(static_cast<std::int64_t>(ElapsedUs(start)));
      return record;
    });
  }
  std::int64_t start = NowNs();
  std::vector<Status> statuses = inner_->CommitMany(timed);
  stats_.commit_many_us.Record(static_cast<std::int64_t>(ElapsedUs(start)));
  ++stats_.commit_many_calls;
  stats_.commit_many_updates += prepares.size();
  return statuses;
}

void RegisterTracedEnquiries(sdb::rpc::RpcServer& rpc, sdb::ns::NameServer& server) {
  namespace ns = sdb::ns;
  const std::string service(ns::kNameService);
  sdb::rpc::RegisterMethod<ns::LookupRequest, ns::LookupResponse>(
      rpc, service, "Lookup",
      [&server](const ns::LookupRequest& request) -> Result<ns::LookupResponse> {
        ScopedSpan span(SpanName::kNsLookup, 1);
        SDB_ASSIGN_OR_RETURN(std::string value, server.Lookup(request.path));
        return ns::LookupResponse{std::move(value)};
      });
  sdb::rpc::RegisterMethod<ns::ListRequest, ns::ListResponse>(
      rpc, service, "List",
      [&server](const ns::ListRequest& request) -> Result<ns::ListResponse> {
        ScopedSpan span(SpanName::kNsList, 1);
        SDB_ASSIGN_OR_RETURN(std::vector<std::string> labels, server.List(request.path));
        return ns::ListResponse{std::move(labels)};
      });
}

}  // namespace nsbench
