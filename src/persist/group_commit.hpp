#pragma once
// Group-commit WAL writer: one ShardWal per (table epoch, shard) stream.
//
// Append path (mutators, lock-free): a record slot is reserved with one
// fetch_add on the LSN counter — the reservation IS the LSN — the record
// body is written into the in-memory ring segment, and the slot is
// published by storing its LSN into the slot's sequence word (release).
// Appenders never take a lock and never touch the file; the only wait is
// a capped-backoff spin when the ring laps the flusher (capacity
// pressure — wait_ring_space, which also traces the episode), plus, in
// SyncMode::kAlways, a condvar wait for the durable watermark to cover
// the new record.
//
// Flush path (one flusher thread per stream): consume the contiguous
// published prefix of the ring, serialize it (CRC32C per record) into
// one write(), then — depending on the sync mode — fdatasync and publish
// the *durable-LSN watermark*.  Batches are adaptive in the group-commit
// sense: a batch is simply everything that accumulated while the
// previous write+fsync was in flight, so throughput-bound workloads
// amortize one fsync over many records while an idle stream pays at
// most flush_idle_us of commit latency.
//
// The watermark (durable_lsn) is the durability contract the kv layer
// builds on: an op is *acknowledged durable* once its record's LSN is
// covered.  Memory reclamation never reads it — append() copies the
// record into the ring, so a stalled watermark delays acks, not frees.
// In kNone mode the watermark advances after write() — no fsync
// promise, matching the mode's name.
//
// Segment rotation and the crash hooks (sync suppression, crash()) exist
// for snapshot truncation and the recovery oracle respectively; both are
// driven from outside the append hot path.

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/clock.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "persist/wal.hpp"
#include "util/backoff.hpp"
#include "util/file_io.hpp"

namespace wfe::persist {

/// kBatched fsync pacing: the flusher keeps write()-ing eagerly but
/// fsyncs only once this many records accumulated since the last sync —
/// or when it is about to go idle, so the watermark never lags a quiet
/// stream by more than flush_idle_us.
inline constexpr std::uint64_t kGroupRecords = 512;

/// Post-crash state of one stream, for the recovery oracle: which bytes
/// of the live segment the simulated kernel had persisted vs merely
/// accepted into the page cache.
struct CrashedTail {
  std::string segment_path;
  std::uint64_t synced_bytes = 0;   ///< covered by the last fdatasync
  std::uint64_t written_bytes = 0;  ///< handed to write(); may be lost
  std::uint64_t durable_lsn = 0;    ///< watermark at the crash
  std::uint64_t appended_lsn = 0;   ///< last reserved LSN at the crash
};

/// A stream's latency probes (src/obs/), all null when the store runs
/// without metrics: fsync duration, commit-wait duration, and the
/// slow-op trace ring (ring-backpressure episodes push a real event
/// there, not just a tls tag).  `lane` is a fixed histogram lane for
/// the stream — the flusher thread has no kv thread slot, and
/// per-stream lanes keep its records off the mutators' cache lines.
/// `watchdog` heartbeats the flusher.
struct WalProbes {
  obs::LatencyHistogram* fsync = nullptr;
  obs::LatencyHistogram* commit_wait = nullptr;
  obs::TraceRing* trace = nullptr;
  unsigned lane = 0;
  obs::Watchdog* watchdog = nullptr;
};

class ShardWal {
 public:
  /// Opens (resuming) or creates the stream for (epoch, shard) in `dir`.
  /// Existing segments are scanned; a torn tail on the newest segment is
  /// truncated away and appending resumes at the next LSN.  Everything
  /// already on disk is treated as durable (it is fsynced on open).  The
  /// flusher starts with `probes` attached.
  ShardWal(const std::string& dir, std::uint64_t epoch, unsigned shard,
           const Options& opts, const WalProbes& probes = {})
      : dir_(dir),
        epoch_(epoch),
        shard_(shard),
        probes_(probes),
        sync_(opts.sync),
        flush_idle_us_(opts.flush_idle_us == 0 ? 1 : opts.flush_idle_us),
        cap_(round_pow2(opts.ring_capacity == 0 ? 1024 : opts.ring_capacity)),
        ring_(new Slot[cap_]) {
    for (std::uint64_t i = 0; i < cap_; ++i)
      ring_[i].seq.store(0, std::memory_order_relaxed);
    open_resuming();
    flusher_ = std::thread([this] { flusher_loop(); });
  }

  ~ShardWal() { close(); }

  ShardWal(const ShardWal&) = delete;
  ShardWal& operator=(const ShardWal&) = delete;

  std::uint64_t epoch() const noexcept { return epoch_; }
  unsigned shard() const noexcept { return shard_; }

  /// Appends and always waits for durability (control records such as
  /// RESIZE_BEGIN, regardless of the data sync mode).
  std::uint64_t log_durable(RecordType type, std::uint64_t key,
                            std::uint64_t value) {
    const std::uint64_t lsn = append(type, key, value);
    wait_durable(lsn);
    return lsn;
  }

  /// After a run of plain append()s, blocks until `lsn` is durable IF
  /// the sync mode asks for per-op acks (kAlways) — lets batch ops
  /// append a whole group fire-and-forget and pay one wait for the last
  /// record (kv multi-ops).
  void ack(std::uint64_t lsn) {
    if (sync_ == SyncMode::kAlways && lsn != 0) wait_durable(lsn);
  }

  /// Fire-and-forget append (no durability wait even in kAlways mode).
  std::uint64_t append(RecordType type, std::uint64_t key,
                       std::uint64_t value) {
    assert(!crashed_.load(std::memory_order_relaxed));
    const std::uint64_t lsn =
        reserved_.fetch_add(1, std::memory_order_acq_rel) + 1;
    wait_ring_space(lsn);
    Slot& s = ring_[(lsn - 1) & (cap_ - 1)];
    s.type = type;
    s.key = key;
    s.value = value;
    s.seq.store(lsn, std::memory_order_release);
    // No wakeup: the flusher polls at flush_idle_us when idle, which
    // bounds commit latency without putting a mutex on the append path
    // (durability waiters nudge it themselves in wait_durable).
    return lsn;
  }

  /// Atomically reserves TWO consecutive LSNs and appends both records
  /// (fire-and-forget).  Because the reservation is one fetch_add, no
  /// concurrent append can land between the pair — this is the intent
  /// pair contract the txn layer builds on (wal.hpp: a TXN_DATA record
  /// always sits at exactly its TXN_INTENT's lsn + 1).  Returns the
  /// SECOND record's LSN (the pair's durability point).
  std::uint64_t append2(RecordType t1, std::uint64_t k1, std::uint64_t v1,
                        RecordType t2, std::uint64_t k2, std::uint64_t v2) {
    assert(!crashed_.load(std::memory_order_relaxed));
    const std::uint64_t lsn2 =
        reserved_.fetch_add(2, std::memory_order_acq_rel) + 2;
    wait_ring_space(lsn2);
    Slot& a = ring_[(lsn2 - 2) & (cap_ - 1)];
    a.type = t1;
    a.key = k1;
    a.value = v1;
    Slot& b = ring_[(lsn2 - 1) & (cap_ - 1)];
    b.type = t2;
    b.key = k2;
    b.value = v2;
    // Publish order between the two slots is irrelevant: the flusher
    // only consumes the contiguous published prefix, so it waits for
    // both before writing either.
    a.seq.store(lsn2 - 1, std::memory_order_release);
    b.seq.store(lsn2, std::memory_order_release);
    return lsn2;
  }

  /// Last reserved LSN (appenders may still be publishing it).
  std::uint64_t appended_lsn() const noexcept {
    return reserved_.load(std::memory_order_acquire);
  }

  /// Durable-LSN watermark: every record at or below it survived (to
  /// the fsync semantics of the stream's sync mode).
  std::uint64_t durable_lsn() const noexcept {
    return durable_.load(std::memory_order_acquire);
  }

  std::uint64_t bytes_appended() const noexcept {
    return appended_lsn() * kRecordSize;
  }
  std::uint64_t fsyncs() const noexcept {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  /// Ring-backpressure wait episodes appenders have served (an episode
  /// is one append stalling until the flusher freed its slot, however
  /// many backoff rounds that took).
  std::uint64_t backpressure_waits() const noexcept {
    return backpressure_waits_.load(std::memory_order_relaxed);
  }

  /// Blocks until everything appended before the call is durable.
  void flush_now() {
    const std::uint64_t target = reserved_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lk(mu_);
      cv_flush_.notify_one();
    }
    wait_durable(target);
  }

  /// Requests a segment rotation once the flusher has written LSN
  /// `at_lsn` (a snapshot's mark): the live segment is closed there and
  /// appending continues in a fresh file, so truncation can later drop
  /// whole files that precede the snapshot.
  void rotate_at(std::uint64_t at_lsn) {
    std::lock_guard<std::mutex> lk(mu_);
    if (at_lsn > rotate_at_) {
      rotate_at_ = at_lsn;
      cv_flush_.notify_one();
    }
  }

  /// Deletes closed segments wholly at or below `lsn` (snapshot
  /// truncation; the live segment is never deleted).
  std::size_t truncate_through(std::uint64_t lsn) {
    std::vector<std::string> victims;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = closed_.begin();
      while (it != closed_.end() && it->last_lsn <= lsn) {
        victims.push_back(it->path);
        it = closed_.erase(it);
      }
    }
    for (const std::string& p : victims) ::unlink(p.c_str());
    return victims.size();
  }

  // ---- crash injection (recovery oracle) ----

  /// Stops advancing the durable watermark (no more fsyncs) while
  /// writes keep flowing to the file: widens the "in the page cache but
  /// not on the platter" window a real crash would expose.
  void suppress_sync(bool on) noexcept {
    sync_suppressed_.store(on, std::memory_order_release);
  }

  /// Test hook: parks the flusher entirely (no ring consumption, no
  /// writes) so the ring fills and appenders hit backpressure — the
  /// stalled-flusher scenario the capped-backoff wait exists for.
  /// Clearing it wakes the flusher immediately.
  void suppress_flush(bool on) noexcept {
    flush_suppressed_.store(on, std::memory_order_release);
    if (!on) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_flush_.notify_one();
    }
  }

  /// Simulated kill: the flusher stops WITHOUT flushing the ring or
  /// fsyncing, pending appends are dropped, and the file is left
  /// exactly as the kernel saw it.  The returned tail state tells the
  /// test harness where the synced/unsynced boundary lies so it can
  /// truncate the file to any crash-consistent (or torn) length.
  CrashedTail crash() {
    stop(/*crash=*/true);
    return {seg_path_, synced_bytes_, written_bytes_,
            durable_.load(std::memory_order_acquire),
            reserved_.load(std::memory_order_acquire)};
  }

  /// Clean shutdown: drain the ring, write, fsync, advance the
  /// watermark to the last appended LSN.  Idempotent.
  void close() { stop(/*crash=*/false); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq;  ///< = record LSN once published
    RecordType type;
    std::uint64_t key, value;
  };
  struct ClosedSegment {
    std::string path;
    std::uint64_t first_lsn, last_lsn;
  };

  static std::uint64_t round_pow2(std::uint64_t v) {
    std::uint64_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  void open_resuming() {
    // Adopt whatever segments already exist for this stream (recovery):
    // the valid, LSN-contiguous prefix that replay reads (scan_stream)
    // is kept — earlier segments become closed segments, the last one
    // resumes as the live segment with its torn tail cut off.  Every
    // segment past the prefix (the bit-rot case) is deleted: those
    // records are unreachable to replay, and leaving the files would
    // collide with future rotations of the resumed live segment.
    StreamFiles mine;
    for (StreamFiles& s : list_dir(dir_).streams)
      if (s.epoch == epoch_ && s.shard == shard_) mine = std::move(s);
    const std::vector<SegmentScan> prefix = scan_stream(mine);
    for (std::size_t i = prefix.size(); i < mine.segments.size(); ++i)
      ::unlink(mine.segments[i].second.c_str());
    std::uint64_t next_lsn = 1;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      const SegmentScan& s = prefix[i];
      if (!s.records.empty()) next_lsn = s.records.back().lsn + 1;
      if (i + 1 == prefix.size()) break;  // the live segment
      if (s.records.empty())
        ::unlink(s.path.c_str());  // an empty closed segment is dropped
      else
        closed_.push_back(
            {s.path, s.records.front().lsn, s.records.back().lsn});
    }
    seg_first_lsn_ = next_lsn;
    if (prefix.empty()) {
      seg_path_ = dir_ + "/" + segment_name(epoch_, shard_, seg_seq_);
    } else {
      const SegmentScan& live = prefix.back();
      seg_seq_ = mine.segments[prefix.size() - 1].first;
      seg_path_ = live.path;
      written_bytes_ = live.valid_bytes;
      if (!live.records.empty()) seg_first_lsn_ = live.records.front().lsn;
      if (live.torn)
        ::truncate(seg_path_.c_str(), static_cast<off_t>(written_bytes_));
    }
    fd_ = ::open(seg_path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd_ >= 0) ::fdatasync(fd_);  // adopted bytes count as durable
    synced_bytes_ = written_bytes_;
    reserved_.store(next_lsn - 1, std::memory_order_release);
    consumed_pub_.store(next_lsn - 1, std::memory_order_release);
    durable_.store(next_lsn - 1, std::memory_order_release);
    consumed_ = next_lsn - 1;
  }

  void flusher_loop() {
    // The serialized batch persists across iterations: on a short or
    // failed write (ENOSPC/EIO/dead fd) the unwritten remainder is
    // retried after a sleep instead of being dropped — consumed_, the
    // ring slots and the durable watermark only ever advance past
    // records that are fully in the file, so an I/O failure stalls the
    // watermark (and eventually the appenders, on ring backpressure)
    // rather than fabricating durable acks.
    std::vector<unsigned char> buf;
    std::size_t buf_off = 0;
    std::uint64_t buf_last = consumed_;  // last LSN encoded into buf
    // Heartbeat: armed per iteration (fresh episode each pass), disarmed
    // across the idle waits — an idle stream is not a stalled one; a
    // wedged write/fsync is.
    obs::Watchdog* const wd = probes_.watchdog;
    const std::size_t hb = wd != nullptr ? wd->acquire_slot() : obs::kNoSlot;
    for (;;) {
      if (hb != obs::kNoSlot) wd->arm(hb, obs::Site::kWalFlusher, shard_);
      if (flush_suppressed_.load(std::memory_order_acquire)) {
        // Parked by the test hook: consume nothing until it clears.
        std::unique_lock<std::mutex> lk(mu_);
        if (stop_) break;
        if (hb != obs::kNoSlot) wd->disarm(hb);
        cv_flush_.wait_for(lk, std::chrono::microseconds(flush_idle_us_));
        continue;
      }
      std::uint64_t rotate_goal;
      {
        std::lock_guard<std::mutex> lk(mu_);
        rotate_goal = rotate_at_;
      }
      if (buf_off == buf.size()) {
        // Previous batch fully on disk: encode the next one, capped at
        // the rotation boundary.
        buf_last = encode_run(consumed_ + 1, rotate_goal, buf);
        buf_off = 0;
      }
      bool io_clean = true;
      if (buf_off < buf.size()) {
        if (fd_ >= 0) buf_off += write_some(buf.data() + buf_off,
                                            buf.size() - buf_off);
        io_clean = buf_off == buf.size();
        if (io_clean) {
          consumed_ = buf_last;
          consumed_pub_.store(buf_last, std::memory_order_release);
          if (sync_ == SyncMode::kNone) advance_durable_unsynced(buf_last);
        }
      }
      const bool more =
          ring_[consumed_ & (cap_ - 1)].seq.load(std::memory_order_acquire) ==
          consumed_ + 1;
      // Group-commit pacing (kBatched): write() eagerly, fsync once
      // enough records piled up or the stream is about to go idle —
      // one sync then covers the whole accumulated group.  kAlways
      // syncs every batch: someone is blocked on it right now.
      if (io_clean && sync_ != SyncMode::kNone && durable_lagging()) {
        const bool must = sync_ == SyncMode::kAlways || !more ||
                          consumed_ - durable_.load(std::memory_order_relaxed) >=
                              kGroupRecords;
        if (must) advance_durable_synced();
      }
      // Rotation: the batch loop never writes past the goal, so once we
      // reach it the live segment ends exactly at the snapshot mark.
      if (io_clean && rotate_goal != 0 && consumed_ >= rotate_goal)
        do_rotate();
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (stop_) break;
        if (io_clean && more) continue;  // keep batching while work arrives
        // Idle — or backing off before retrying a failed write.
        if (hb != obs::kNoSlot) wd->disarm(hb);
        cv_flush_.wait_for(lk, std::chrono::microseconds(flush_idle_us_));
      }
    }
    if (hb != obs::kNoSlot) wd->release_slot(hb);
    // Shutdown: a clean close drains and fsyncs (best effort — a write
    // that still fails here leaves the watermark honest, just short);
    // a crash abandons the ring and leaves the file as-is.
    if (!crashed_.load(std::memory_order_acquire) && fd_ >= 0) {
      if (buf_off < buf.size())
        buf_off += write_some(buf.data() + buf_off, buf.size() - buf_off);
      if (buf_off == buf.size()) {
        consumed_ = buf_last;
        buf_last = encode_run(consumed_ + 1, 0, buf);
        if (write_some(buf.data(), buf.size()) == buf.size())
          consumed_ = buf_last;
      }
      consumed_pub_.store(consumed_, std::memory_order_release);
      if (sync_segment()) durable_.store(consumed_, std::memory_order_release);
      wake_durable_waiters();
    }
  }

  /// The one ring encoder (flusher batches and the close drain):
  /// replaces `buf` by the records of the contiguous published run that
  /// starts at LSN `from`, ending at `last` unless it is 0, and returns
  /// the run's last LSN (from - 1 when empty).  A run never exceeds the
  /// ring: no appender publishes more than cap_ past consumed_pub_.
  std::uint64_t encode_run(std::uint64_t from, std::uint64_t last,
                           std::vector<unsigned char>& buf) const {
    buf.clear();
    std::uint64_t next = from;
    for (; last == 0 || next <= last; ++next) {
      const Slot& s = ring_[(next - 1) & (cap_ - 1)];
      if (s.seq.load(std::memory_order_acquire) != next) break;
      buf.resize(buf.size() + kRecordSize);
      encode_record({s.type, next, s.key, s.value},
                    buf.data() + buf.size() - kRecordSize);
    }
    return next - 1;
  }

  /// Writes as much as the kernel takes; returns bytes written (may be
  /// short on ENOSPC/EIO — the caller retries the remainder later).
  std::size_t write_some(const unsigned char* p, std::size_t n) {
    const std::size_t w = util::write_all(fd_, p, n);
    written_bytes_ += w;
    return w;
  }

  /// The flusher's one fdatasync of the live segment (group commit,
  /// rotation, close drain).  Every sync is timed; only a successful one
  /// counts in fsyncs() and marks the written bytes synced.
  bool sync_segment() {
    const std::uint64_t t0 =
        probes_.fsync != nullptr ? obs::now_ticks() : 0;
    const bool ok = ::fdatasync(fd_) == 0;
    if (probes_.fsync != nullptr)
      probes_.fsync->record(obs::ticks_to_ns(obs::now_ticks() - t0),
                            probes_.lane);
    if (ok) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
      synced_bytes_ = written_bytes_;
    }
    return ok;
  }

  /// The one stop path: close() lets the flusher drain the ring, crash()
  /// makes it abandon the ring; either way it is joined and the live
  /// segment's fd closed.  Idempotent.
  void stop(bool crash) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (crash) crashed_.store(true, std::memory_order_release);
      if (stop_) return;
      stop_ = true;
      cv_flush_.notify_one();
      cv_durable_.notify_all();
    }
    if (flusher_.joinable()) flusher_.join();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool durable_lagging() const noexcept {
    return durable_.load(std::memory_order_relaxed) < consumed_;
  }

  /// kNone: the watermark follows write() — no fsync promise.
  void advance_durable_unsynced(std::uint64_t lsn) {
    if (sync_suppressed_.load(std::memory_order_acquire)) return;
    durable_.store(lsn, std::memory_order_release);
    wake_durable_waiters();
  }

  /// kBatched/kAlways: one fdatasync covers everything written so far.
  /// A failed sync stalls the watermark — no durable ack without disk.
  void advance_durable_synced() {
    if (sync_suppressed_.load(std::memory_order_acquire)) return;
    if (fd_ < 0 || !sync_segment()) return;
    durable_.store(consumed_, std::memory_order_release);
    wake_durable_waiters();
  }

  /// Always under mu_: a waiter's predicate check also runs under mu_,
  /// so the notify cannot slip between its stale durable_ read and its
  /// sleep (the lock-free flag dance this replaces had exactly that
  /// store/load race).  Once per flushed batch — not a hot path.
  void wake_durable_waiters() {
    std::lock_guard<std::mutex> lk(mu_);
    cv_durable_.notify_all();
  }

  void do_rotate() {
    // fsync the finished segment so truncation can trust it, then swap
    // in the next file.  Runs on the flusher between batches.
    if (fd_ >= 0) {
      sync_segment();
      ::close(fd_);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (consumed_ >= seg_first_lsn_)
        closed_.push_back({seg_path_, seg_first_lsn_, consumed_});
      ++seg_seq_;
      seg_path_ = dir_ + "/" + segment_name(epoch_, shard_, seg_seq_);
      seg_first_lsn_ = consumed_ + 1;
      rotate_at_ = 0;
    }
    fd_ = ::open(seg_path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    written_bytes_ = 0;
    synced_bytes_ = 0;
  }

  /// Ring backpressure: the slot for `lsn` is reusable only once the
  /// flusher has consumed its previous occupant (lsn - cap_).  Capped
  /// exponential backoff, never a bare yield spin — on an
  /// oversubscribed host (the 1-CPU CI runner above all) a pack of
  /// yielding appenders can bounce off each other for whole quanta
  /// while the flusher, the only thread that can free slots, waits for
  /// a turn; util::Backoff folds in a yield only at its cap, so the
  /// flusher is guaranteed scheduling (the same fix PR 5 applied to
  /// wait_migrated).  Each episode pushes ONE trace event when a ring
  /// is attached: saturation shows up in the slow-op trace as a
  /// wal-backpressure event with the episode's true duration, instead
  /// of only a tls tag an op wrapper may or may not harvest.
  void wait_ring_space(std::uint64_t lsn) {
    if (lsn - consumed_pub_.load(std::memory_order_acquire) <= cap_) return;
    obs::stall_note(obs::TraceCause::kWalBackpressure, shard_);
    const std::uint64_t t0 = obs::now_ticks();
    {
      // Cut the flusher's idle timeout short: it frees the slots.
      std::lock_guard<std::mutex> lk(mu_);
      cv_flush_.notify_one();
    }
    util::Backoff backoff;
    do {
      backoff.pause();
    } while (lsn - consumed_pub_.load(std::memory_order_acquire) > cap_);
    backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    if (probes_.trace != nullptr)
      probes_.trace->push(obs::OpKind::kWalAppend, shard_,
                          obs::ticks_to_ns(obs::now_ticks() - t0),
                          obs::TraceCause::kWalBackpressure);
  }

  void wait_durable(std::uint64_t lsn) {
    if (durable_.load(std::memory_order_acquire) >= lsn) return;
    // This op is now group-commit bound: tag it so a slow-op trace can
    // attribute the latency, and time the wait itself.
    const std::uint64_t t0 =
        probes_.commit_wait != nullptr ? obs::now_ticks() : 0;
    if (probes_.commit_wait != nullptr)
      obs::stall_note(obs::TraceCause::kWalBackpressure, shard_);
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_flush_.notify_one();  // don't ride out the idle timeout
      cv_durable_.wait(lk, [&] {
        return durable_.load(std::memory_order_acquire) >= lsn ||
               crashed_.load(std::memory_order_acquire) || stop_;
      });
    }
    if (probes_.commit_wait != nullptr)
      probes_.commit_wait->record(obs::ticks_to_ns(obs::now_ticks() - t0),
                                  probes_.lane);
  }

  const std::string dir_;
  const std::uint64_t epoch_;
  const unsigned shard_;
  const WalProbes probes_;
  const SyncMode sync_;
  const std::uint32_t flush_idle_us_;
  const std::uint64_t cap_;
  std::unique_ptr<Slot[]> ring_;

  std::atomic<std::uint64_t> reserved_{0};      ///< last reserved LSN
  std::atomic<std::uint64_t> consumed_pub_{0};  ///< ring slots reusable up to
  std::atomic<std::uint64_t> durable_{0};       ///< the watermark
  std::atomic<bool> sync_suppressed_{false};
  std::atomic<bool> flush_suppressed_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> backpressure_waits_{0};


  // Flusher-owned (plus mu_-guarded shared bits).
  std::uint64_t consumed_ = 0;  ///< last LSN written to the file
  int fd_ = -1;
  std::string seg_path_;
  unsigned seg_seq_ = 0;
  std::uint64_t seg_first_lsn_ = 1;
  std::uint64_t written_bytes_ = 0;
  std::uint64_t synced_bytes_ = 0;

  std::mutex mu_;
  std::condition_variable cv_flush_;
  std::condition_variable cv_durable_;
  bool stop_ = false;
  std::uint64_t rotate_at_ = 0;
  std::vector<ClosedSegment> closed_;

  std::thread flusher_;
};

}  // namespace wfe::persist
