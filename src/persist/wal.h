#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "core/record.h"
#include "util/result.h"

namespace infoleak::persist {

/// \brief Durability policy of the write-ahead log.
enum class FsyncMode {
  kAlways,    ///< fsync before every append acknowledges (no ack is ever lost)
  kInterval,  ///< a background thread fsyncs periodically (bounded loss window)
  kNever,     ///< rely on the OS page cache (loss window = OS flush interval)
};

/// Parses "always" | "interval" | "never".
Result<FsyncMode> ParseFsyncMode(std::string_view name);
std::string_view FsyncModeName(FsyncMode mode);

/// \brief Appender over the write-ahead log: an append-only file of
/// length-prefixed, CRC32C-checksummed frames, one frame per record.
///
/// Frame layout (all integers little-endian):
///
///   u32 payload_len | u32 crc32c(payload) | payload (codec.h record)
///
/// A frame is only trusted on replay if it is complete AND its checksum
/// matches, so a crash mid-write (a torn frame) damages at most the final
/// frame and never an earlier acknowledged one. With `FsyncMode::kAlways`
/// the writer fsyncs before `Append` returns — the acknowledgement
/// contract `kill -9` cannot break.
///
/// Fail-stop: the first failed write or fsync poisons the writer. A failed
/// write may leave a torn frame in the file, and replay stops at the first
/// torn frame, so any frame appended after it would be acknowledged and
/// then lost on recovery; after an fsync failure the kernel may already
/// have dropped the dirty pages, so a later fsync that succeeds proves
/// nothing. Every later `Append`, `Sync` and `Reset` therefore fails with
/// FailedPrecondition naming the original errno; the only way out is a
/// restart, whose recovery truncates the torn tail.
///
/// Thread safety: none. `DurableStore` serializes all appends under its
/// append mutex (WAL order must equal store-id order); `Sync` may be
/// called concurrently with `Append` only through that same owner.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if missing) the log for appending.
  static Result<WalWriter> Open(const std::string& path, FsyncMode mode);

  /// Appends one record frame; with kAlways, fsyncs before returning.
  /// Refused once the writer is poisoned.
  Status Append(const Record& record);

  /// Forces an fsync now (the interval thread's tick, and the shutdown
  /// flush for kInterval/kNever). Refused once the writer is poisoned.
  Status Sync();

  /// Byte offset of the end of the log (== next frame's start).
  uint64_t offset() const { return offset_; }

  /// Truncates the log to zero length (compaction). The caller must hold
  /// off appends while truncating.
  Status Reset();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// True once a write or fsync has failed (see the class comment).
  bool poisoned() const { return poison_op_ != nullptr; }

 private:
  /// OK for an open, healthy writer; FailedPrecondition otherwise.
  Status CheckWritable() const;

  /// Poisons the writer with the failed operation and its errno, and
  /// returns that failure.
  Status Poison(const char* op, int err);

  int fd_ = -1;
  const char* poison_op_ = nullptr;  ///< "write" / "fsync"; null = healthy
  int poison_errno_ = 0;
  uint64_t offset_ = 0;
  uint64_t unsynced_bytes_ = 0;  ///< appended since the last fsync
  FsyncMode mode_ = FsyncMode::kAlways;
  std::string path_;
};

/// \brief Outcome of one WAL replay pass.
struct WalReplayResult {
  uint64_t frames = 0;           ///< frames decoded and applied
  uint64_t end_offset = 0;       ///< offset just past the last valid frame
  uint64_t truncated_bytes = 0;  ///< bytes dropped past the damage point
  /// OK when the tail was clean; Corruption describing the first torn or
  /// checksum-failing frame otherwise. Damage is a *recovered* condition —
  /// the replay call itself still succeeds.
  Status damage;
};

/// Replays the log at `path` from byte `start_offset`, invoking `apply` for
/// each valid frame in order. A torn or corrupt frame ends the replay at
/// the last good frame boundary instead of failing; when `truncate_damage`
/// is set the file is truncated there so subsequent appends never
/// interleave with garbage. A missing file replays as empty; a
/// `start_offset` past the end (a snapshot newer than a compacted log)
/// replays as an empty tail. Only an `apply` error or an I/O failure makes
/// the call itself fail.
Result<WalReplayResult> ReplayWal(
    const std::string& path, uint64_t start_offset,
    const std::function<Status(Record)>& apply, bool truncate_damage);

}  // namespace infoleak::persist
