// Timing wrappers the traced run puts around the engine's seams, from outside the
// program: a Vfs over PosixFs (storage), an UpdateSink over DatabaseUpdateSink and
// its prepare closures (core, nameserver), and the enquiry handlers (nameserver).
// Each opens a span (spans.h) and feeds the per-layer counters below. They record
// only inside a traced interval, or nested in a span opened in one.
#ifndef SMALLDB_NSBENCH_LAYERS_H_
#define SMALLDB_NSBENCH_LAYERS_H_

#include <atomic>
#include <memory>

#include "src/nameserver/name_server.h"
#include "src/obs/metrics.h"
#include "src/rpc/server.h"
#include "src/storage/vfs.h"

namespace nsbench {

// Storage I/O, split by the operation it ran under (the thread's current span).
struct StorageStats {
  sdb::obs::Histogram commit_sync_us;  // fsyncs issued inside CommitMany
  std::atomic<std::uint64_t> commit_sync_total_us{0};
  std::atomic<std::uint64_t> commit_append_bytes{0};
  std::atomic<std::uint64_t> open_read_bytes{0};  // reads inside NameServer::Open
  std::atomic<std::uint64_t> open_read_us{0};
  std::atomic<std::uint64_t> checkpoint_renames{0};  // inside NameServer::Checkpoint
  std::atomic<std::uint64_t> checkpoint_syncdirs{0};
  std::atomic<std::uint64_t> checkpoints{0};  // whose I/O the two above count
};

class TimingVfs final : public sdb::Vfs {
 public:
  TimingVfs(sdb::Vfs& base, StorageStats& stats) : base_(base), stats_(stats) {}

  sdb::Result<std::unique_ptr<sdb::File>> Open(std::string_view path,
                                               sdb::OpenMode mode) override;
  sdb::Status Delete(std::string_view path) override;
  sdb::Status Rename(std::string_view from, std::string_view to) override;
  sdb::Result<bool> Exists(std::string_view path) override;
  sdb::Result<std::vector<std::string>> List(std::string_view dir) override;
  sdb::Status CreateDir(std::string_view path) override;
  sdb::Status SyncDir(std::string_view dir) override;

 private:
  sdb::Vfs& base_;
  StorageStats& stats_;
};

// Commit-path counters: CommitMany calls and the prepare closures they carry.
struct CoreStats {
  sdb::obs::Histogram commit_many_us;
  sdb::obs::Histogram prepare_us;
  std::atomic<std::uint64_t> commit_many_calls{0};
  std::atomic<std::uint64_t> commit_many_updates{0};
};

class TimingSink final : public sdb::rpc::UpdateSink {
 public:
  TimingSink(std::shared_ptr<sdb::rpc::UpdateSink> inner, CoreStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::vector<sdb::Status> CommitMany(
      std::span<const std::function<sdb::Result<sdb::Bytes>()>> prepares) override;

 private:
  std::shared_ptr<sdb::rpc::UpdateSink> inner_;
  CoreStats& stats_;
};

// Re-registers NameService.Lookup and NameService.List through the program's own
// typed stubs (rpc::RegisterMethod), with the NameServer call inside a nameserver
// span that roots the enquiry's server-side tree. The rpc layer's time around it
// (request and response marshalling) comes from RpcServer's rpc.server.handler_us.
// Call after RegisterNameService.
void RegisterTracedEnquiries(sdb::rpc::RpcServer& rpc, sdb::ns::NameServer& server);

}  // namespace nsbench

#endif  // SMALLDB_NSBENCH_LAYERS_H_
