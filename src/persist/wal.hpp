#pragma once
// WAL record format + segment reader for the durability subsystem
// (src/persist/): the on-disk contract everything else builds on.
//
// === Record format (fixed 32 bytes, little-endian) ===
//
//   offset 0   u32  crc     CRC-32C over bytes [4, 32)
//   offset 4   u8   type    RecordType below
//   offset 5   u8[3] pad    zero
//   offset 8   u64  lsn     monotonic per stream, starts at 1
//   offset 16  u64  key
//   offset 24  u64  value
//
// A *stream* is the ordered log of one (table epoch, shard) pair; it is
// stored as one or more *segment* files
//
//   wal-e<epoch>-s<shard>-<seg>.log
//
// appended strictly in order.  Snapshot-driven truncation deletes whole
// prefix segments, so the surviving segments of a stream always hold one
// contiguous LSN range.  Reader validation, in order of application:
//
//   * a trailing partial record (file size not a multiple of 32) is a
//     torn tail: ignored, the stream ends at the last whole record;
//   * a CRC mismatch ends the stream at the previous record (replay
//     never steps over a corrupt record — everything after it is
//     unreachable, exactly like data written after a lost fsync);
//   * an LSN that is not predecessor+1 ends the stream the same way
//     (catches bit rot that happens to leave the CRC intact-looking
//     only because the whole record was replaced).
//
// Keys and values travel as u64: the kv layer bit-casts any
// trivially-copyable type of at most 8 bytes through encode()/decode().
// RESIZE_* records pack (from_shards << 32 | to_shards) into `key` and
// the new table epoch into `value`; SNAPSHOT_MARK carries the snapshot
// id in `key` and the table epoch in `value`.
//
// Transaction records (src/txn/): a TXN_INTENT carries the txn id in
// `key` and op flags (bit 0: is_remove) in `value`; the payload rides
// in a TXN_DATA record at exactly lsn+1 on the same stream (the pair is
// reserved atomically, so no foreign record can land between them — a
// pair whose second half is missing or torn is incomplete and carries
// no effect).  TXN_COMMIT carries the txn id in `key` and the intent
// count in `value`; recovery installs a transaction iff its commit is
// durable AND all `count` intent pairs are readable (recovery.hpp).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>

#include "util/crc32c.hpp"

namespace wfe::persist {

enum class RecordType : std::uint8_t {
  kPut = 1,
  kRemove = 2,
  kResizeBegin = 3,
  kResizeEnd = 4,
  kSnapshotMark = 5,
  kTxnIntent = 6,  ///< key = txn id, value = op flags (kTxnFlagRemove)
  kTxnData = 7,    ///< the intent's payload, always at intent lsn + 1
  kTxnCommit = 8,  ///< key = txn id, value = intent-pair count
};

/// TXN_INTENT `value` flag bits.
inline constexpr std::uint64_t kTxnFlagRemove = 1ull << 0;

inline constexpr std::size_t kRecordSize = 32;

struct Record {
  RecordType type;
  std::uint64_t lsn;
  std::uint64_t key;
  std::uint64_t value;
};

/// How hard an appended record is pushed toward the platter before the
/// durable-LSN watermark advances past it (see group_commit.hpp).
enum class SyncMode : std::uint8_t {
  kNone,     ///< watermark advances after write(); no fsync until close
  kBatched,  ///< group commit: flusher fsyncs adaptive batches
  kAlways,   ///< appenders block until their record is fsynced
};

/// Durability knobs, embedded in KvConfig as `persistence`.
struct Options {
  bool enabled = false;
  std::string dir;  ///< WAL + snapshot directory (created on open)
  SyncMode sync = SyncMode::kBatched;
  /// In-memory segment: record slots mutators reserve via fetch_add
  /// (rounded up to a power of two).  Appenders spin when the flusher
  /// falls this far behind.
  std::uint32_t ring_capacity = 4096;
  /// Flusher idle wait between batches; also the group-commit latency
  /// bound when no appender is pushing.
  std::uint32_t flush_idle_us = 200;
  /// Auto-compaction: writer threads snapshot + truncate once this many
  /// WAL bytes accumulated since the last snapshot (0 = manual only).
  std::uint64_t snapshot_every_bytes = 0;
  /// Writes between auto-snapshot checks, per thread (power of two).
  unsigned snapshot_check_interval = 1024;
  /// Compact (snapshot + truncate) right after a recovery replay.
  bool snapshot_on_open = true;
};

// ---- u64 transport for keys and values ----

template <class T>
concept wal_encodable =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t);

template <wal_encodable T>
std::uint64_t encode(const T& v) noexcept {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(T));
  return out;
}

template <wal_encodable T>
T decode(std::uint64_t v) noexcept {
  T out{};
  std::memcpy(&out, &v, sizeof(T));
  return out;
}

// ---- record codec ----

inline void encode_record(const Record& r, unsigned char out[kRecordSize]) noexcept {
  std::memset(out, 0, kRecordSize);
  out[4] = static_cast<unsigned char>(r.type);
  std::memcpy(out + 8, &r.lsn, 8);
  std::memcpy(out + 16, &r.key, 8);
  std::memcpy(out + 24, &r.value, 8);
  const std::uint32_t crc = util::crc32c(out + 4, kRecordSize - 4);
  std::memcpy(out, &crc, 4);
}

/// False on CRC mismatch or an out-of-range type byte.
inline bool decode_record(const unsigned char in[kRecordSize], Record& r) noexcept {
  std::uint32_t crc = 0;
  std::memcpy(&crc, in, 4);
  if (crc != util::crc32c(in + 4, kRecordSize - 4)) return false;
  const unsigned char t = in[4];
  if (t < static_cast<unsigned char>(RecordType::kPut) ||
      t > static_cast<unsigned char>(RecordType::kTxnCommit))
    return false;
  r.type = static_cast<RecordType>(t);
  std::memcpy(&r.lsn, in + 8, 8);
  std::memcpy(&r.key, in + 16, 8);
  std::memcpy(&r.value, in + 24, 8);
  return true;
}

inline std::uint64_t pack_shards(std::uint64_t from, std::uint64_t to) noexcept {
  return (from << 32) | (to & 0xFFFFFFFFull);
}
inline std::uint64_t packed_to(std::uint64_t packed) noexcept {
  return packed & 0xFFFFFFFFull;
}

// ---- file naming ----

inline std::string segment_name(std::uint64_t epoch, unsigned shard,
                                unsigned seg) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "wal-e%06llu-s%05u-%06u.log",
                static_cast<unsigned long long>(epoch), shard, seg);
  return buf;
}

inline std::string snapshot_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "snap-%06llu.dat",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Parses a segment file name; false when `name` is not a WAL segment.
inline bool parse_segment_name(const char* name, std::uint64_t& epoch,
                               unsigned& shard, unsigned& seg) {
  unsigned long long e = 0;
  unsigned s = 0, g = 0;
  int len = 0;
  if (std::sscanf(name, "wal-e%llu-s%u-%u.log%n", &e, &s, &g, &len) != 3 ||
      name[len] != '\0')
    return false;
  epoch = e;
  shard = s;
  seg = g;
  return true;
}

inline bool parse_snapshot_name(const char* name, std::uint64_t& id) {
  unsigned long long i = 0;
  int len = 0;
  if (std::sscanf(name, "snap-%llu.dat%n", &i, &len) != 1 || name[len] != '\0')
    return false;
  id = i;
  return true;
}

// ---- segment reading ----

/// All whole, valid records of one segment file, in file order.  Stops
/// (without error) at the first torn or corrupt record; `valid_bytes`
/// reports how far the intact prefix reaches, so callers can resume
/// appending right after it.
inline std::vector<Record> read_segment(const std::string& path,
                                        std::uint64_t& valid_bytes) {
  std::vector<Record> out;
  valid_bytes = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  unsigned char buf[kRecordSize];
  while (std::fread(buf, 1, kRecordSize, f) == kRecordSize) {
    Record r;
    if (!decode_record(buf, r)) break;
    if (!out.empty() && r.lsn != out.back().lsn + 1) break;
    out.push_back(r);
    valid_bytes += kRecordSize;
  }
  std::fclose(f);
  return out;
}

/// One stream's segments on disk, ascending by segment number.
struct StreamFiles {
  std::uint64_t epoch = 0;
  unsigned shard = 0;
  std::vector<std::pair<unsigned, std::string>> segments;  ///< (seg, path)
};

struct DirListing {
  std::vector<StreamFiles> streams;            ///< sorted by (epoch, shard)
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;  ///< desc by id
};

/// Scans `dir` for WAL segments and snapshot files (non-matching names
/// ignored).  Missing directory yields an empty listing.
inline DirListing list_dir(const std::string& dir) {
  DirListing out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  const auto stream_of = [&out](std::uint64_t epoch,
                                unsigned shard) -> StreamFiles& {
    for (StreamFiles& s : out.streams)
      if (s.epoch == epoch && s.shard == shard) return s;
    out.streams.push_back({epoch, shard, {}});
    return out.streams.back();
  };
  while (dirent* e = ::readdir(d)) {
    std::uint64_t epoch = 0, snap_id = 0;
    unsigned shard = 0, seg = 0;
    if (parse_segment_name(e->d_name, epoch, shard, seg)) {
      stream_of(epoch, shard)
          .segments.emplace_back(seg, dir + "/" + e->d_name);
    } else if (parse_snapshot_name(e->d_name, snap_id)) {
      out.snapshots.emplace_back(snap_id, dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  std::sort(out.streams.begin(), out.streams.end(),
            [](const StreamFiles& a, const StreamFiles& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch : a.shard < b.shard;
            });
  for (StreamFiles& s : out.streams)
    std::sort(s.segments.begin(), s.segments.end());
  std::sort(out.snapshots.begin(), out.snapshots.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

/// One segment on a stream's valid prefix (scan_stream).
struct SegmentScan {
  std::string path;
  std::vector<Record> records;    ///< its whole, valid records
  std::uint64_t valid_bytes = 0;  ///< how far those records reach
  bool torn = false;  ///< the file runs past them: the prefix ends here
};

/// The one walk of a stream's valid prefix, shared by replay
/// (read_stream) and reopen (ShardWal).  Visits the segments in order,
/// stopping before the first one whose records do not continue the
/// previous segment's LSNs (a gap) and after the first one whose file
/// runs past its last valid record (a torn or corrupt tail).  Every
/// segment past the returned ones is unreachable.
inline std::vector<SegmentScan> scan_stream(const StreamFiles& sf) {
  std::vector<SegmentScan> out;
  std::uint64_t last_lsn = 0;  // LSNs start at 1: 0 = no record yet
  for (const auto& [seg, path] : sf.segments) {
    std::uint64_t bytes = 0;
    std::vector<Record> recs = read_segment(path, bytes);
    if (!recs.empty()) {
      if (last_lsn != 0 && recs.front().lsn != last_lsn + 1) break;
      last_lsn = recs.back().lsn;
    }
    struct ::stat st{};
    const bool torn = ::stat(path.c_str(), &st) != 0 ||
                      static_cast<std::uint64_t>(st.st_size) != bytes;
    out.push_back({path, std::move(recs), bytes, torn});
    if (torn) break;
  }
  return out;
}

/// All valid records of a stream across its segments, in LSN order.
inline std::vector<Record> read_stream(const StreamFiles& sf) {
  std::vector<Record> out;
  for (const SegmentScan& s : scan_stream(sf))
    out.insert(out.end(), s.records.begin(), s.records.end());
  return out;
}

}  // namespace wfe::persist
