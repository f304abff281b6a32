// WAL unit contracts (src/persist/): the record codec, the segment /
// stream readers' torn-tail and corruption behavior, ShardWal's
// append/flush/durable/rotate/resume lifecycle, and the snapshot file
// format.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/trace.hpp"
#include "persist/group_commit.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "scratch_dir.hpp"

namespace {

using namespace wfe;
using persist::Record;
using persist::RecordType;

// $TMPDIR-honoring scratch, removed even when a test fails (see
// scratch_dir.hpp; WFE_KEEP_SCRATCH=1 keeps it for upload).
struct TempDir {
  test::ScratchDir sd{"wal"};
  std::string path = sd.path();
};

/// Appends raw records (valid encoding) to a file, returning the path.
std::string write_raw(const std::string& dir, const std::string& name,
                      const std::vector<Record>& recs,
                      std::size_t extra_garbage = 0) {
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  unsigned char buf[persist::kRecordSize];
  for (const Record& r : recs) {
    persist::encode_record(r, buf);
    std::fwrite(buf, 1, sizeof buf, f);
  }
  for (std::size_t i = 0; i < extra_garbage; ++i) std::fputc(0x5A, f);
  std::fclose(f);
  return path;
}

TEST(WalRecord, RoundTripsAndRejectsEveryFlippedByte) {
  Record in{RecordType::kPut, 42, 0xDEADBEEFull, 0xFEEDFACEull};
  unsigned char buf[persist::kRecordSize];
  persist::encode_record(in, buf);
  Record out{};
  ASSERT_TRUE(persist::decode_record(buf, out));
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.lsn, in.lsn);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.value, in.value);
  for (std::size_t i = 0; i < persist::kRecordSize; ++i) {
    unsigned char tampered[persist::kRecordSize];
    std::memcpy(tampered, buf, sizeof buf);
    tampered[i] ^= 0x40;
    Record r{};
    EXPECT_FALSE(persist::decode_record(tampered, r)) << "flipped byte " << i;
  }
}

TEST(WalRecord, RejectsOutOfRangeType) {
  Record in{RecordType::kPut, 1, 2, 3};
  unsigned char buf[persist::kRecordSize];
  persist::encode_record(in, buf);
  buf[4] = 0;  // type below kPut, with a recomputed (valid) CRC
  const std::uint32_t crc = util::crc32c(buf + 4, persist::kRecordSize - 4);
  std::memcpy(buf, &crc, 4);
  Record r{};
  EXPECT_FALSE(persist::decode_record(buf, r));
}

TEST(WalReader, TornTailIsIgnored) {
  TempDir td;
  std::vector<Record> recs;
  for (std::uint64_t i = 1; i <= 5; ++i)
    recs.push_back({RecordType::kPut, i, i * 10, i * 100});
  const std::string path =
      write_raw(td.path, persist::segment_name(1, 0, 0), recs, /*garbage=*/17);
  std::uint64_t bytes = 0;
  const std::vector<Record> got = persist::read_segment(path, bytes);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(bytes, 5 * persist::kRecordSize);
  EXPECT_EQ(got.back().lsn, 5u);
}

TEST(WalReader, CorruptRecordEndsTheStream) {
  TempDir td;
  std::vector<Record> recs;
  for (std::uint64_t i = 1; i <= 5; ++i)
    recs.push_back({RecordType::kPut, i, i, i});
  const std::string path =
      write_raw(td.path, persist::segment_name(1, 0, 0), recs);
  // Flip one byte inside record 3 (index 2).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, static_cast<long>(2 * persist::kRecordSize + 20), SEEK_SET);
  std::fputc(0x7F, f);
  std::fclose(f);
  std::uint64_t bytes = 0;
  const std::vector<Record> got = persist::read_segment(path, bytes);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.back().lsn, 2u);
}

TEST(WalReader, LsnGapEndsTheStream) {
  TempDir td;
  const std::string path = write_raw(
      td.path, persist::segment_name(1, 0, 0),
      {{RecordType::kPut, 1, 1, 1}, {RecordType::kPut, 2, 2, 2},
       {RecordType::kPut, 4, 4, 4}});
  std::uint64_t bytes = 0;
  EXPECT_EQ(persist::read_segment(path, bytes).size(), 2u);
}

TEST(WalReader, StreamSpansSegmentsAndStopsAtCrossSegmentGap) {
  TempDir td;
  write_raw(td.path, persist::segment_name(3, 1, 0),
            {{RecordType::kPut, 1, 1, 1}, {RecordType::kPut, 2, 2, 2}});
  write_raw(td.path, persist::segment_name(3, 1, 1),
            {{RecordType::kPut, 3, 3, 3}});
  write_raw(td.path, persist::segment_name(3, 1, 2),
            {{RecordType::kPut, 9, 9, 9}});  // gap: unreachable
  persist::DirListing ls = persist::list_dir(td.path);
  ASSERT_EQ(ls.streams.size(), 1u);
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.back().lsn, 3u);
}

TEST(WalWriter, AppendFlushDurableAndResume) {
  TempDir td;
  persist::Options opts;
  opts.sync = persist::SyncMode::kBatched;
  {
    persist::ShardWal wal(td.path, 1, 0, opts);
    for (std::uint64_t i = 1; i <= 100; ++i)
      wal.append(RecordType::kPut, i, i * 2);
    wal.flush_now();
    EXPECT_EQ(wal.appended_lsn(), 100u);
    EXPECT_EQ(wal.durable_lsn(), 100u);
    EXPECT_GT(wal.fsyncs(), 0u);
  }
  {
    // Reopen resumes the LSN sequence on the same segment.
    persist::ShardWal wal(td.path, 1, 0, opts);
    EXPECT_EQ(wal.appended_lsn(), 100u);
    EXPECT_EQ(wal.durable_lsn(), 100u);
    for (std::uint64_t i = 101; i <= 150; ++i)
      wal.append(RecordType::kPut, i, i);
    wal.close();
  }
  persist::DirListing ls = persist::list_dir(td.path);
  ASSERT_EQ(ls.streams.size(), 1u);
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), 150u);
  for (std::uint64_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].lsn, i + 1);
}

TEST(WalWriter, AlwaysModeAcksOnlyDurableRecords) {
  TempDir td;
  persist::Options opts;
  opts.sync = persist::SyncMode::kAlways;
  persist::ShardWal wal(td.path, 1, 0, opts);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const std::uint64_t lsn = wal.log(RecordType::kPut, i, i);
    EXPECT_GE(wal.durable_lsn(), lsn);  // log() returned => fsynced
  }
}

TEST(WalWriter, OpenTruncatesTornTail) {
  TempDir td;
  persist::Options opts;
  {
    persist::ShardWal wal(td.path, 1, 0, opts);
    for (std::uint64_t i = 1; i <= 10; ++i) wal.append(RecordType::kPut, i, i);
    wal.flush_now();
    wal.close();
  }
  const std::string path = td.path + "/" + persist::segment_name(1, 0, 0);
  ASSERT_EQ(::truncate(path.c_str(), 8 * persist::kRecordSize + 13), 0);
  {
    persist::ShardWal wal(td.path, 1, 0, opts);
    EXPECT_EQ(wal.appended_lsn(), 8u);  // torn record 9 cut away
    wal.append(RecordType::kPut, 99, 99);
    wal.flush_now();
    wal.close();
  }
  persist::DirListing ls = persist::list_dir(td.path);
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ(got.back().key, 99u);
  EXPECT_EQ(got.back().lsn, 9u);
}

TEST(WalWriter, OpenAfterMidStreamGapDropsGarbageAndResumesLive) {
  TempDir td;
  // Segments 0 and 1 are a contiguous prefix; segment 2 starts at LSN 9
  // (mid-stream rot) and is unreachable garbage.
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kPut, 1, 1, 1}, {RecordType::kPut, 2, 2, 2}});
  write_raw(td.path, persist::segment_name(1, 0, 1),
            {{RecordType::kPut, 3, 3, 3}, {RecordType::kPut, 4, 4, 4}});
  write_raw(td.path, persist::segment_name(1, 0, 2),
            {{RecordType::kPut, 9, 9, 9}});
  persist::Options opts;
  {
    persist::ShardWal wal(td.path, 1, 0, opts);
    EXPECT_EQ(wal.appended_lsn(), 4u);  // resumes after the valid prefix
    wal.append(RecordType::kPut, 5, 5);
    wal.flush_now();
    // Truncating through the closed prefix must never touch the live
    // segment (segment 1 is live again, NOT a deletable closed one).
    wal.truncate_through(4);
    wal.close();
  }
  persist::DirListing ls = persist::list_dir(td.path);
  ASSERT_EQ(ls.streams.size(), 1u);
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), 3u);  // 3,4 (live segment) + the new 5
  EXPECT_EQ(got.front().lsn, 3u);
  EXPECT_EQ(got.back().lsn, 5u);
  EXPECT_EQ(got.back().key, 5u);
}

TEST(WalWriter, RotationAndTruncationDropWholeSegments) {
  TempDir td;
  persist::Options opts;
  persist::ShardWal wal(td.path, 1, 0, opts);
  for (std::uint64_t i = 1; i <= 50; ++i) wal.append(RecordType::kPut, i, i);
  wal.rotate_at(50);
  wal.flush_now();
  for (std::uint64_t i = 51; i <= 80; ++i) wal.append(RecordType::kPut, i, i);
  wal.flush_now();
  EXPECT_EQ(wal.truncate_through(50), 1u);  // seg 0 wholly <= 50: deleted
  wal.close();
  persist::DirListing ls = persist::list_dir(td.path);
  ASSERT_EQ(ls.streams.size(), 1u);
  ASSERT_EQ(ls.streams[0].segments.size(), 1u);  // only the live segment
  const std::vector<Record> got = persist::read_stream(ls.streams[0]);
  ASSERT_EQ(got.size(), 30u);
  EXPECT_EQ(got.front().lsn, 51u);
  EXPECT_EQ(got.back().lsn, 80u);
}

// Regression for the unbounded-stall fix: an appender blocked on a full
// ring (flusher parked) must make bounded progress once the flusher
// runs again, count the episode, and push a first-class trace event —
// not just spin on bare yields leaving no observable record.
TEST(WalWriter, BackpressureMakesBoundedProgressAndTracesEpisodes) {
  TempDir td;
  persist::Options opts;
  opts.sync = persist::SyncMode::kBatched;
  opts.ring_capacity = 8;  // tiny ring: backpressure within a few appends
  obs::TraceRing trace(64);
  persist::ShardWal wal(td.path, 1, 0, opts);
  wal.set_metrics(nullptr, nullptr, &trace, 0);
  wal.suppress_flush(true);  // park the flusher so the ring truly fills
  for (std::uint64_t i = 1; i <= 8; ++i) wal.append(RecordType::kPut, i, i);
  std::atomic<bool> done{false};
  std::thread appender([&] {
    wal.append(RecordType::kPut, 9, 9);  // 9th record: no ring slot free
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load(std::memory_order_acquire))
      << "append got a slot while the flusher was parked — the ring "
         "never filled and this test exercised nothing";
  wal.suppress_flush(false);
  appender.join();  // a hang here (ctest timeout) IS the regression
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_GE(wal.backpressure_waits(), 1u);
  wal.flush_now();
  EXPECT_EQ(wal.durable_lsn(), 9u);
  bool traced = false;
  for (const obs::TraceEvent& e : trace.snapshot())
    if (e.op == obs::OpKind::kWalAppend &&
        e.cause == obs::TraceCause::kWalBackpressure)
      traced = true;
  EXPECT_TRUE(traced) << "backpressure episode missing from the trace ring";
}

TEST(Snapshot, RoundTripAndCrcRejection) {
  TempDir td;
  persist::SnapshotImage img;
  img.id = 7;
  img.epoch = 3;
  img.shards = 2;
  img.marks = {11, 22};
  for (std::uint64_t i = 0; i < 100; ++i) img.pairs.emplace_back(i, i * i);
  ASSERT_TRUE(persist::write_snapshot(td.path, img));

  persist::SnapshotImage in;
  const std::string path = td.path + "/" + persist::snapshot_name(7);
  ASSERT_TRUE(persist::read_snapshot(path, in));
  EXPECT_EQ(in.id, 7u);
  EXPECT_EQ(in.epoch, 3u);
  EXPECT_EQ(in.marks, img.marks);
  EXPECT_EQ(in.pairs, img.pairs);

  // Corrupt one byte: the load must reject the file.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, 64, SEEK_SET);
  std::fputc(0x01, f);
  std::fclose(f);
  persist::SnapshotImage bad;
  EXPECT_FALSE(persist::read_snapshot(path, bad));

  // plan_recovery walks past the invalid snapshot to an older valid one.
  img.id = 5;
  ASSERT_TRUE(persist::write_snapshot(td.path, img));
  persist::RecoveryPlan plan = persist::plan_recovery(td.path);
  EXPECT_TRUE(plan.snapshot_valid);
  EXPECT_EQ(plan.snapshot.id, 5u);
  EXPECT_EQ(plan.max_snapshot_id, 7u);
}

TEST(Snapshot, TruncateSupersededKeepsNewestTwo) {
  TempDir td;
  persist::SnapshotImage img;
  img.shards = 0;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    img.id = id;
    img.epoch = 2;
    ASSERT_TRUE(persist::write_snapshot(td.path, img));
  }
  write_raw(td.path, persist::segment_name(1, 0, 0),
            {{RecordType::kPut, 1, 1, 1}});  // epoch 1 < snapshot epoch 2
  persist::truncate_superseded(td.path, /*snapshot_epoch=*/2,
                               /*newest_snapshot_id=*/4);
  persist::DirListing ls = persist::list_dir(td.path);
  EXPECT_TRUE(ls.streams.empty());  // old-epoch stream deleted
  ASSERT_EQ(ls.snapshots.size(), 2u);
  EXPECT_EQ(ls.snapshots[0].first, 4u);
  EXPECT_EQ(ls.snapshots[1].first, 3u);
}

}  // namespace
