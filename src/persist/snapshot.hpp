#pragma once
// Snapshot (compaction) files for the durability subsystem: a fuzzy
// dump of the whole store plus the per-shard WAL positions the dump is
// consistent with, so recovery loads the snapshot and replays only the
// log tails.
//
// === File format (snap-<id>.dat, little-endian) ===
//
//   u64 magic      "WFESNAP1"
//   u64 id         snapshot sequence number (monotonic per store)
//   u64 epoch      table epoch the dump was taken from
//   u64 shards     shard count of that table
//   u64 pairs      number of (key, value) pairs that follow
//   u64 mark[shards]   per-shard SNAPSHOT_MARK LSN: records with
//                      lsn <= mark[s] are covered by the dump
//   (u64 key, u64 value) * pairs
//   u32 crc        CRC-32C over everything above
//
// A snapshot is valid only if it is complete and the trailing CRC
// matches; recovery walks snapshot ids downward until it finds a valid
// one (a crash mid-write leaves a torn, rejected file — the write goes
// through a temp name + rename + directory fsync, so a *renamed*
// snapshot is practically always whole; the CRC is the belt to that
// suspender).
//
// === Why a fuzzy dump + mark LSN is consistent ===
//
// Mutators apply to the shard memory FIRST, then reserve an LSN and
// append the record (kv/shard.hpp).  The mark record is appended with
// the same fetch_add the data records use, so every record with
// lsn < mark was fully appended — and therefore fully APPLIED — before
// the mark existed; the dump starts after the mark, so it observes all
// of those effects.  Ops that raced the dump have lsn > mark and are
// replayed over the loaded pairs on recovery; replaying PUT/REMOVE is
// idempotent state-setting, so re-applying an op the dump already
// caught is harmless.  (Per-key replay order is LSN order.  For two
// writers racing on one key the memory linearization — the cell-CAS
// order — and the LSN order can disagree, because the LSN is reserved
// after the CAS: recovery then lands on the racer with the higher LSN,
// which pre-crash readers may have seen lose.  The ambiguity is
// confined to ops concurrent on the SAME key; any workload that
// serializes per-key writes — including the recovery oracle's — gets
// exact recovery.  Capturing the LSN at the CAS itself would need the
// LSN embedded in the cell word, a protocol redesign noted in the
// ROADMAP.)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "persist/wal.hpp"
#include "util/crc32c.hpp"
#include "util/file_io.hpp"

namespace wfe::persist {

inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E53454657ull;  // "WFESNAP1"

struct SnapshotImage {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t shards = 0;
  std::vector<std::uint64_t> marks;  ///< one per shard of `epoch`
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
};

/// Writes `img` as snap-<id>.dat in `dir` through util::replace_file
/// (temp file + fdatasync + rename + directory fsync).  False on any I/O
/// failure.
inline bool write_snapshot(const std::string& dir, const SnapshotImage& img) {
  std::vector<unsigned char> buf;
  buf.reserve(40 + 8 * img.marks.size() + 16 * img.pairs.size() + 4);
  const auto put_u64 = [&buf](std::uint64_t v) {
    const std::size_t at = buf.size();
    buf.resize(at + 8);
    std::memcpy(buf.data() + at, &v, 8);
  };
  put_u64(kSnapshotMagic);
  put_u64(img.id);
  put_u64(img.epoch);
  put_u64(img.shards);
  put_u64(img.pairs.size());
  for (std::uint64_t m : img.marks) put_u64(m);
  for (const auto& [k, v] : img.pairs) {
    put_u64(k);
    put_u64(v);
  }
  const std::uint32_t crc = util::crc32c(buf.data(), buf.size());
  const std::size_t at = buf.size();
  buf.resize(at + 4);
  std::memcpy(buf.data() + at, &crc, 4);
  return util::replace_file(dir + "/" + snapshot_name(img.id), buf.data(),
                            buf.size());
}

/// Loads and validates one snapshot file.  False when torn, truncated,
/// or CRC-rejected (callers then fall back to an older snapshot).
inline bool read_snapshot(const std::string& path, SnapshotImage& img) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    buf.insert(buf.end(), chunk, chunk + got);
  std::fclose(f);
  if (buf.size() < 44) return false;  // header + crc minimum
  std::uint32_t crc = 0;
  std::memcpy(&crc, buf.data() + buf.size() - 4, 4);
  if (crc != util::crc32c(buf.data(), buf.size() - 4)) return false;
  const auto get_u64 = [&buf](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, buf.data() + at, 8);
    return v;
  };
  if (get_u64(0) != kSnapshotMagic) return false;
  img.id = get_u64(8);
  img.epoch = get_u64(16);
  img.shards = get_u64(24);
  const std::uint64_t npairs = get_u64(32);
  const std::uint64_t want = 40 + 8 * img.shards + 16 * npairs + 4;
  if (buf.size() != want) return false;
  img.marks.clear();
  img.pairs.clear();
  std::size_t at = 40;
  for (std::uint64_t s = 0; s < img.shards; ++s, at += 8)
    img.marks.push_back(get_u64(at));
  for (std::uint64_t i = 0; i < npairs; ++i, at += 16)
    img.pairs.emplace_back(get_u64(at), get_u64(at + 8));
  return true;
}

}  // namespace wfe::persist
