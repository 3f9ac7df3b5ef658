#include "persist/durable_store.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "persist/codec.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/file.h"

namespace infoleak::persist {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the test temp root.
std::string TempDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string FileContents(const std::string& path) {
  auto r = ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value_or("");
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix B.4 test vectors.
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, ExtendEqualsOneShot) {
  const std::string data = "the write-ahead log of record stores";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::string data = "sensitive payload";
  const uint32_t clean = Crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32c(data), clean) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(CodecTest, PrimitivesRoundTrip) {
  std::string buf;
  PutU32(&buf, 0xDEADBEEFu);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutF64(&buf, 0.1 + 0.2);  // not representable exactly: bit-exactness test
  PutString(&buf, "héllo\0world");

  Cursor cur(buf);
  EXPECT_EQ(cur.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(cur.ReadU64().value(), 0x0123456789ABCDEFull);
  const double f = cur.ReadF64().value();
  EXPECT_EQ(f, 0.1 + 0.2);  // EXPECT_EQ, not NEAR: must be the same bits
  EXPECT_EQ(cur.ReadString().value(), "héllo");
  EXPECT_TRUE(cur.AtEnd());
}

TEST(CodecTest, RecordRoundTripIsBitExact) {
  Record record{{"name", "alice", 1.0 / 3.0}, {"city", "zurich", 0.1234}};
  std::string buf;
  EncodeRecord(&buf, record);
  Cursor cur(buf);
  auto decoded = DecodeRecord(&cur);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_EQ(*decoded, record);
}

TEST(CodecTest, CursorRejectsOverrun) {
  std::string buf;
  PutU32(&buf, 7);
  Cursor cur(buf);
  EXPECT_TRUE(cur.ReadU64().status().code() == StatusCode::kCorruption);
  // A corrupt string length must not drive a giant allocation or overrun.
  std::string lie;
  PutU32(&lie, 0xFFFFFFFFu);
  lie += "abc";
  Cursor cur2(lie);
  EXPECT_EQ(cur2.ReadString().status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, ParseFsyncModeRoundTrips) {
  for (FsyncMode mode :
       {FsyncMode::kAlways, FsyncMode::kInterval, FsyncMode::kNever}) {
    auto parsed = ParseFsyncMode(FsyncModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseFsyncMode("sometimes").ok());
}

TEST(WalTest, AppendAndReplay) {
  const std::string path = TempDir("wal_append") + "/wal.log";
  {
    auto wal = WalWriter::Open(path, FsyncMode::kNever);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->Append(Record{{"N", "a", 0.5}}).ok());
    ASSERT_TRUE(wal->Append(Record{{"N", "b", 0.25}, {"P", "1", 1.0}}).ok());
    EXPECT_GT(wal->offset(), 0u);
  }
  std::vector<Record> replayed;
  auto result = ReplayWal(
      path, 0,
      [&](Record r) {
        replayed.push_back(std::move(r));
        return Status::OK();
      },
      /*truncate_damage=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->damage.ok());
  EXPECT_EQ(result->frames, 2u);
  EXPECT_EQ(result->truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_TRUE(replayed[0].Contains("N", "a"));
  EXPECT_TRUE(replayed[1].Contains("P", "1"));
}

TEST(WalTest, MissingFileReplaysEmpty) {
  auto result = ReplayWal(
      TempDir("wal_missing") + "/nope.log", 0,
      [](Record) { return Status::OK(); }, false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->frames, 0u);
  EXPECT_TRUE(result->damage.ok());
}

TEST(WalTest, StartOffsetPastEndReplaysEmptyTail) {
  const std::string path = TempDir("wal_past_end") + "/wal.log";
  {
    auto wal = WalWriter::Open(path, FsyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Record{{"N", "a", 0.5}}).ok());
  }
  // A snapshot taken just before a compaction can cover an offset larger
  // than the post-reset log; that must be an empty tail, not an error.
  auto result = ReplayWal(
      path, 1u << 20, [](Record) { return Status::OK(); }, false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->frames, 0u);
  EXPECT_TRUE(result->damage.ok());
}

TEST(WalTest, TornFrameTruncatesAndKeepsEarlierFrames) {
  const std::string dir = TempDir("wal_torn");
  const std::string path = dir + "/wal.log";
  uint64_t clean_offset = 0;
  {
    auto wal = WalWriter::Open(path, FsyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Record{{"N", "a", 0.5}}).ok());
    ASSERT_TRUE(wal->Append(Record{{"N", "b", 0.5}}).ok());
    clean_offset = wal->offset();
  }
  // Simulate a torn write: half a frame of garbage at the tail. Write with
  // an explicit length — the header's embedded NULs end a C-string early.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00gar", 7);
  }
  std::size_t replayed = 0;
  auto result = ReplayWal(
      path, 0,
      [&](Record) {
        ++replayed;
        return Status::OK();
      },
      /*truncate_damage=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(replayed, 2u);
  EXPECT_FALSE(result->damage.ok());
  EXPECT_EQ(result->damage.code(), StatusCode::kCorruption);
  EXPECT_EQ(result->end_offset, clean_offset);
  EXPECT_EQ(result->truncated_bytes, 7u);
  EXPECT_EQ(fs::file_size(path), clean_offset);  // file physically truncated

  // After truncation, appending resumes at the clean boundary.
  auto wal = WalWriter::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->offset(), clean_offset);
}

/// Caps the size of files this process writes (RLIMIT_FSIZE) with SIGXFSZ
/// ignored, so a write crossing the cap comes back short and the next one
/// fails with EFBIG; both are restored on destruction.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &previous_), 0);
    rlimit capped = previous_;
    capped.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = nullptr;
};

// A short write leaves a torn frame in the log, and replay stops at the
// first torn frame. A writer that kept appending after it would acknowledge
// frames that recovery then drops; it must refuse them instead.
TEST(WalTest, FailedWritePoisonsTheWriterAndNoAcknowledgedFrameIsLost) {
  const std::string path = TempDir("wal_short_write") + "/wal.log";
  auto wal = WalWriter::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  std::vector<Record> acknowledged;
  const auto append = [&](Record r) {
    Status status = wal->Append(r);
    if (status.ok()) acknowledged.push_back(std::move(r));
    return status;
  };
  ASSERT_TRUE(append(Record{{"N", "a", 0.5}}).ok());
  ASSERT_TRUE(append(Record{{"N", "b", 0.25}, {"P", "1", 1.0}}).ok());
  const uint64_t clean_end = wal->offset();

  Status failed;
  {
    FileSizeCap cap(clean_end + 10);  // header plus two payload bytes fit
    failed = append(Record{{"N", "c", 0.5}, {"P", "22222222", 1.0}});
  }
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(wal->poisoned());
  EXPECT_EQ(wal->offset(), clean_end);
  EXPECT_EQ(fs::file_size(path), clean_end + 10);  // the torn bytes stay

  // The file system would take this frame now; the writer must not.
  const Status refused = append(Record{{"N", "d", 0.5}});
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("errno " + std::to_string(EFBIG)),
            std::string::npos)
      << refused.message();
  EXPECT_EQ(wal->Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal->Reset().code(), StatusCode::kFailedPrecondition);

  std::vector<Record> replayed;
  auto result = ReplayWal(
      path, 0,
      [&](Record r) {
        replayed.push_back(std::move(r));
        return Status::OK();
      },
      /*truncate_damage=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->damage.code(), StatusCode::kCorruption);
  EXPECT_EQ(result->end_offset, clean_end);
  EXPECT_EQ(replayed, acknowledged);
}

TEST(WalTest, ResetTruncatesToZero) {
  const std::string path = TempDir("wal_reset") + "/wal.log";
  auto wal = WalWriter::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Record{{"N", "a", 0.5}}).ok());
  ASSERT_TRUE(wal->Reset().ok());
  EXPECT_EQ(wal->offset(), 0u);
  EXPECT_EQ(fs::file_size(path), 0u);
  ASSERT_TRUE(wal->Append(Record{{"N", "b", 0.5}}).ok());
  std::size_t frames = 0;
  auto result = ReplayWal(
      path, 0,
      [&](Record) {
        ++frames;
        return Status::OK();
      },
      false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(frames, 1u);
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  Record a{{"name", "alice", 0.75}, {"city", "zurich", 0.5}};
  Record b{{"name", "bob", 0.25}, {"city", "zurich", 1.0}};
  std::string bytes = EncodeSnapshot({&a, &b}, 12345);
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->wal_offset, 12345u);
  ASSERT_EQ(decoded->records.size(), 2u);
  EXPECT_EQ(decoded->records[0], a);
  EXPECT_EQ(decoded->records[1], b);
}

TEST(SnapshotTest, StringPoolInternsRepeatedValues) {
  // 100 records sharing one label/value vocabulary must not serialize the
  // strings 100 times: the pool makes the format compact.
  Record shared{{"label-with-some-length", "value-with-some-length", 0.5}};
  std::vector<const Record*> records(100, &shared);
  const std::string bytes = EncodeSnapshot(records, 0);
  constexpr std::string_view kVocabulary =
      "label-with-some-length value-with-some-length";
  EXPECT_LT(bytes.size(), 100 * kVocabulary.size());
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records.size(), 100u);
  EXPECT_EQ(decoded->records[99], shared);
}

TEST(SnapshotTest, RejectsDamage) {
  Record a{{"N", "a", 0.5}};
  std::string bytes = EncodeSnapshot({&a}, 0);
  EXPECT_FALSE(DecodeSnapshot("junk").ok());
  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() - 1)).ok());
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  auto damaged = DecodeSnapshot(flipped);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotTest, FileNameRoundTrips) {
  EXPECT_EQ(SnapshotFileName(0x2a), "snapshot-000000000000002a.snap");
  EXPECT_EQ(ParseSnapshotFileName("snapshot-000000000000002a.snap").value(),
            0x2au);
  EXPECT_FALSE(ParseSnapshotFileName("wal.log").ok());
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-xyz.snap").ok());
  // Lexicographic order == record-count order (how recovery finds newest).
  EXPECT_LT(SnapshotFileName(9), SnapshotFileName(10));
  EXPECT_LT(SnapshotFileName(255), SnapshotFileName(256));
}

// ---------------------------------------------------------------------------
// DurableStore
// ---------------------------------------------------------------------------

TEST(DurableStoreTest, FreshDirectoryStartsEmpty) {
  auto store = DurableStore::Open(TempDir("ds_fresh"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->store().size(), 0u);
  EXPECT_EQ((*store)->recovery().snapshot_records, 0u);
  EXPECT_EQ((*store)->recovery().replayed_frames, 0u);
  EXPECT_TRUE((*store)->recovery().wal_damage.ok());
}

TEST(DurableStoreTest, AppendsSurviveReopen) {
  const std::string dir = TempDir("ds_reopen");
  {
    auto store = DurableStore::Open(dir);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->Append(Record{{"N", "a", 0.5}}).value(), 0u);
    EXPECT_EQ((*store)->Append(Record{{"N", "b", 0.25}}).value(), 1u);
  }
  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->store().size(), 2u);
  EXPECT_EQ((*reopened)->recovery().replayed_frames, 2u);
  EXPECT_TRUE((*reopened)->store().Get(0)->Contains("N", "a"));
  EXPECT_TRUE((*reopened)->store().Get(1)->Contains("N", "b"));
}

TEST(DurableStoreTest, SnapshotShortensReplay) {
  const std::string dir = TempDir("ds_snapshot");
  {
    auto store = DurableStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "a", 0.5}}).ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "b", 0.5}}).ok());
    ASSERT_TRUE((*store)->Snapshot().ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "c", 0.5}}).ok());
  }
  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->store().size(), 3u);
  EXPECT_EQ((*reopened)->recovery().snapshot_records, 2u);
  EXPECT_EQ((*reopened)->recovery().replayed_frames, 1u);
  EXPECT_TRUE((*reopened)->store().Get(2)->Contains("N", "c"));
}

TEST(DurableStoreTest, CompactFoldsWalIntoSnapshot) {
  const std::string dir = TempDir("ds_compact");
  {
    auto store = DurableStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "a", 0.5}}).ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "b", 0.5}}).ok());
    ASSERT_TRUE((*store)->Compact().ok());
    EXPECT_EQ((*store)->wal_offset(), 0u);
    // Appends after compaction land in the fresh log...
    ASSERT_TRUE((*store)->Append(Record{{"N", "c", 0.5}}).ok());
  }
  // ...and must replay on recovery (the snapshot covers offset 0).
  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->store().size(), 3u);
  EXPECT_EQ((*reopened)->recovery().snapshot_records, 2u);
  EXPECT_EQ((*reopened)->recovery().replayed_frames, 1u);

  // Compaction prunes to a single snapshot file plus the wal.
  std::size_t snapshots = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (ParseSnapshotFileName(entry.path().filename().string()).ok()) {
      ++snapshots;
    }
  }
  EXPECT_EQ(snapshots, 1u);
}

TEST(DurableStoreTest, DamagedSnapshotFallsBackToOlderOne) {
  const std::string dir = TempDir("ds_bad_snapshot");
  {
    auto store = DurableStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "a", 0.5}}).ok());
    ASSERT_TRUE((*store)->Snapshot().ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "b", 0.5}}).ok());
    ASSERT_TRUE((*store)->Snapshot().ok());
  }
  // Corrupt the newest snapshot; the older one plus the log still recover
  // the full state.
  const std::string newest = dir + "/" + SnapshotFileName(2);
  std::string bytes = FileContents(newest);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(newest, bytes).ok());

  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery().skipped_snapshots, 1u);
  EXPECT_EQ((*reopened)->recovery().snapshot_records, 1u);
  EXPECT_EQ((*reopened)->store().size(), 2u);
  EXPECT_TRUE((*reopened)->store().Get(1)->Contains("N", "b"));
}

TEST(DurableStoreTest, AutoSnapshotTriggersInBackground) {
  const std::string dir = TempDir("ds_auto_snapshot");
  DurableStore::Options opts;
  opts.fsync = FsyncMode::kNever;
  opts.snapshot_every = 4;
  auto store = DurableStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        (*store)->Append(Record{{"N", std::to_string(i), 0.5}}).ok());
  }
  // The snapshot lands asynchronously; poll briefly rather than flake.
  bool seen = false;
  for (int tries = 0; tries < 200 && !seen; ++tries) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (ParseSnapshotFileName(entry.path().filename().string()).ok()) {
        seen = true;
      }
    }
    if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(seen) << "no background snapshot after 8 appends with "
                       "snapshot_every=4";
}

TEST(DurableStoreTest, IntervalModeFlushesInBackground) {
  const std::string dir = TempDir("ds_interval");
  DurableStore::Options opts;
  opts.fsync = FsyncMode::kInterval;
  opts.fsync_interval_ms = 5;
  {
    auto store = DurableStore::Open(dir, opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "a", 0.5}}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->store().size(), 1u);
}

TEST(DurableStoreTest, RecoverySummaryMentionsTheParts) {
  const std::string dir = TempDir("ds_summary");
  {
    auto store = DurableStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "a", 0.5}}).ok());
    ASSERT_TRUE((*store)->Snapshot().ok());
    ASSERT_TRUE((*store)->Append(Record{{"N", "b", 0.5}}).ok());
  }
  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  const std::string summary = (*reopened)->recovery().Summary();
  EXPECT_NE(summary.find("recovered 2 records"), std::string::npos) << summary;
  EXPECT_NE(summary.find("snapshot-"), std::string::npos) << summary;
  EXPECT_NE(summary.find("1 replayed"), std::string::npos) << summary;
}

}  // namespace
}  // namespace infoleak::persist
