#include "persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "persist/codec.h"
#include "persist/crc32c.h"
#include "util/file.h"

namespace infoleak::persist {
namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Writes all `n` bytes; returns 0, or the errno of the failed write (the
/// bytes written before it stay in the file).
int WriteFully(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
  return 0;
}

obs::Counter& FsyncCounter(FsyncMode mode) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_wal_fsync_total",
      {{"mode", std::string(FsyncModeName(mode))}},
      "WAL fsync calls, by configured durability mode");
}

obs::Histogram& FsyncSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "infoleak_wal_fsync_seconds", {}, "Wall time of one WAL fsync");
  return h;
}

obs::Histogram& SyncBatchBytes() {
  // Powers of 4 from one small frame to 16 MiB: under kAlways every batch
  // is one frame; under kInterval this is the burst a 25 ms tick flushes
  // (the durability window a crash could lose).
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "infoleak_wal_sync_batch_bytes", {},
      "Bytes made durable by one WAL fsync (appended since the previous)",
      {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
       16777216});
  return h;
}

}  // namespace

Result<FsyncMode> ParseFsyncMode(std::string_view name) {
  if (name == "always") return FsyncMode::kAlways;
  if (name == "interval") return FsyncMode::kInterval;
  if (name == "never") return FsyncMode::kNever;
  return Status::InvalidArgument("unknown fsync mode '" + std::string(name) +
                                 "' (always|interval|never)");
}

std::string_view FsyncModeName(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kAlways: return "always";
    case FsyncMode::kInterval: return "interval";
    case FsyncMode::kNever: return "never";
  }
  return "unknown";
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      poison_op_(other.poison_op_),
      poison_errno_(other.poison_errno_),
      offset_(other.offset_),
      unsynced_bytes_(other.unsynced_bytes_),
      mode_(other.mode_),
      path_(std::move(other.path_)) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    poison_op_ = other.poison_op_;
    poison_errno_ = other.poison_errno_;
    offset_ = other.offset_;
    unsynced_bytes_ = other.unsynced_bytes_;
    mode_ = other.mode_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

Result<WalWriter> WalWriter::Open(const std::string& path, FsyncMode mode) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot open wal '" + path + "'");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status status = Errno("fstat wal '" + path + "'");
    ::close(fd);
    return status;
  }
  WalWriter writer;
  writer.fd_ = fd;
  writer.offset_ = static_cast<uint64_t>(st.st_size);
  writer.mode_ = mode;
  writer.path_ = path;
  return writer;
}

Status WalWriter::CheckWritable() const {
  if (fd_ < 0) return Status::FailedPrecondition("wal is not open");
  if (poison_op_ != nullptr) {
    return Status::FailedPrecondition(
        std::string("wal refuses writes after a failed ") + poison_op_ +
        " (errno " + std::to_string(poison_errno_) + ": " +
        std::strerror(poison_errno_) + "); restart to recover");
  }
  return Status::OK();
}

Status WalWriter::Poison(const char* op, int err) {
  static obs::Counter& failures = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_wal_failures_total", {},
      "WAL writes and fsyncs that failed; each poisons its writer, which "
      "refuses every later append until a restart recovers");
  failures.Inc();
  poison_op_ = op;
  poison_errno_ = err;
  return Status::Internal(std::string("wal ") + op + ": " +
                          std::strerror(err));
}

Status WalWriter::Append(const Record& record) {
  INFOLEAK_RETURN_IF_ERROR(CheckWritable());
  static obs::Counter& appends = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_wal_appends_total", {}, "Record frames appended to the WAL");
  static obs::Histogram& seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "infoleak_wal_append_seconds", {},
          "Wall time of one WAL append (frame write + fsync when always)");
  obs::HistogramTimer timer(seconds);

  std::string frame;
  frame.resize(kFrameHeaderBytes);  // patched below once the payload exists
  EncodeRecord(&frame, record);
  const std::string_view payload(frame.data() + kFrameHeaderBytes,
                                 frame.size() - kFrameHeaderBytes);
  std::string header;
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU32(&header, Crc32c(payload));
  frame.replace(0, kFrameHeaderBytes, header);

  if (const int err = WriteFully(fd_, frame.data(), frame.size()); err != 0) {
    return Poison("write", err);
  }
  offset_ += frame.size();
  unsynced_bytes_ += frame.size();
  appends.Inc();
  if (mode_ == FsyncMode::kAlways) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  INFOLEAK_RETURN_IF_ERROR(CheckWritable());
  obs::HistogramTimer timer(FsyncSeconds());
  if (::fsync(fd_) != 0) return Poison("fsync", errno);
  FsyncCounter(mode_).Inc();
  SyncBatchBytes().Observe(static_cast<double>(unsynced_bytes_));
  unsynced_bytes_ = 0;
  return Status::OK();
}

Status WalWriter::Reset() {
  INFOLEAK_RETURN_IF_ERROR(CheckWritable());
  if (::ftruncate(fd_, 0) != 0) return Errno("wal truncate");
  offset_ = 0;
  unsynced_bytes_ = 0;
  return Sync();
}

Result<WalReplayResult> ReplayWal(
    const std::string& path, uint64_t start_offset,
    const std::function<Status(Record)>& apply, bool truncate_damage) {
  static obs::Counter& replayed = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_wal_replayed_frames_total", {},
      "Record frames replayed from the WAL during recovery");
  static obs::Counter& truncations =
      obs::MetricsRegistry::Global().GetCounter(
          "infoleak_wal_truncations_total", {},
          "Recoveries that truncated a torn or corrupt WAL tail");

  WalReplayResult result;
  auto contents = ReadFileToString(path);
  if (!contents.ok()) {
    if (contents.status().IsNotFound()) return result;  // fresh log
    return contents.status();
  }
  const std::string& bytes = *contents;
  if (start_offset >= bytes.size()) {
    // A snapshot can cover more of the log than exists when the log was
    // compacted after the snapshot was taken: nothing left to replay.
    result.end_offset = bytes.size();
    return result;
  }

  uint64_t pos = start_offset;
  result.end_offset = pos;
  while (pos < bytes.size()) {
    Cursor header(std::string_view(bytes).substr(
        pos, std::min<std::size_t>(kFrameHeaderBytes, bytes.size() - pos)));
    auto len = header.ReadU32();
    auto crc = header.ReadU32();
    if (!len.ok() || !crc.ok()) {
      result.damage = Status::Corruption(
          "torn frame header at byte " + std::to_string(pos) + " (" +
          std::to_string(bytes.size() - pos) + " trailing bytes)");
      break;
    }
    if (bytes.size() - pos - kFrameHeaderBytes < *len) {
      result.damage = Status::Corruption(
          "torn frame at byte " + std::to_string(pos) + ": payload of " +
          std::to_string(*len) + " bytes extends past end of log");
      break;
    }
    const std::string_view payload =
        std::string_view(bytes).substr(pos + kFrameHeaderBytes, *len);
    if (Crc32c(payload) != *crc) {
      result.damage = Status::Corruption("checksum mismatch in frame at byte " +
                                         std::to_string(pos));
      break;
    }
    Cursor body(payload);
    auto record = DecodeRecord(&body);
    if (!record.ok() || !body.AtEnd()) {
      result.damage = Status::Corruption(
          "undecodable frame payload at byte " + std::to_string(pos) + ": " +
          (record.ok() ? "trailing payload bytes"
                       : record.status().message()));
      break;
    }
    INFOLEAK_RETURN_IF_ERROR(apply(std::move(record).value()));
    pos += kFrameHeaderBytes + *len;
    result.frames += 1;
    result.end_offset = pos;
    replayed.Inc();
  }

  if (!result.damage.ok()) {
    result.truncated_bytes = bytes.size() - result.end_offset;
    truncations.Inc();
    if (truncate_damage &&
        ::truncate(path.c_str(), static_cast<off_t>(result.end_offset)) != 0) {
      return Errno("truncating damaged wal '" + path + "'");
    }
  }
  return result;
}

}  // namespace infoleak::persist
