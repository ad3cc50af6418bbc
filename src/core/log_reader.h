// LogReader: replays the redo log at restart.
//
// Normal recovery (paper Section 4): complete, CRC-valid entries are delivered in
// order; a partially written trailing entry is detected and discarded. With hard-error
// tolerance enabled, a damaged entry in the *middle* of the log (unreadable page or CRC
// failure) is skipped by resynchronizing at the next entry marker — "recovery from a
// hard error in the log could consist of ignoring just the damaged log entry".
#ifndef SMALLDB_SRC_CORE_LOG_READER_H_
#define SMALLDB_SRC_CORE_LOG_READER_H_

#include <cstdint>
#include <functional>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/storage/vfs.h"

namespace sdb {

struct LogReplayOptions {
  // If true, damaged middle entries are skipped (resync at next marker); if false, any
  // damage that is not a clean partial tail fails the replay with kCorruption.
  bool skip_damaged_entries = false;

  // Page granularity for reading (localizes unreadable regions) and for recognizing
  // inter-commit zero padding. Must match the LogWriterOptions used to write the log.
  std::size_t page_size = 512;
};

struct LogReplayStats {
  std::uint64_t entries_replayed = 0;
  std::uint64_t entries_skipped = 0;     // damaged entries ignored (hard-error mode)
  std::uint64_t unreadable_pages = 0;    // file pages that reported errors
  bool partial_tail_discarded = false;   // a torn final entry was dropped
  std::uint64_t bytes_consumed = 0;
};

// Reads the whole log file (tolerating unreadable pages by substituting a poison
// pattern that cannot CRC-validate, so damaged regions are handled by the framing
// layer) and invokes `apply` for each valid entry payload. Stops and returns an error
// if `apply` fails.
Result<LogReplayStats> ReplayLog(File& file, const LogReplayOptions& options,
                                 const std::function<Status(ByteSpan)>& apply);

// As ReplayLog, but the callback also receives each entry's byte offset within the
// log file (used by ShardedDatabase, whose shards replay the one shared log from
// different positions).
Result<LogReplayStats> ReplayLogWithOffsets(
    File& file, const LogReplayOptions& options,
    const std::function<Status(std::uint64_t offset, ByteSpan)>& apply);

// Convenience: replays from a Vfs path.
Result<LogReplayStats> ReplayLogFile(Vfs& vfs, std::string_view path,
                                     const LogReplayOptions& options,
                                     const std::function<Status(ByteSpan)>& apply);

}  // namespace sdb

#endif  // SMALLDB_SRC_CORE_LOG_READER_H_
