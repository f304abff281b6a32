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
#include <sys/stat.h>
#include <unistd.h>

#include "obs/clock.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "persist/wal.hpp"
#include "util/backoff.hpp"

namespace wfe::persist {

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

class ShardWal {
 public:
  /// Opens (resuming) or creates the stream for (epoch, shard) in `dir`.
  /// Existing segments are scanned; a torn tail on the newest segment is
  /// truncated away and appending resumes at the next LSN.  Everything
  /// already on disk is treated as durable (it is fsynced on open).
  ShardWal(const std::string& dir, std::uint64_t epoch, unsigned shard,
           const Options& opts)
      : dir_(dir),
        epoch_(epoch),
        shard_(shard),
        sync_(opts.sync),
        flush_idle_us_(opts.flush_idle_us == 0 ? 1 : opts.flush_idle_us),
        group_records_(opts.group_records == 0 ? 1 : opts.group_records),
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

  /// Attaches latency probes (src/obs/): fsync duration, commit-wait
  /// duration, and the slow-op trace ring (ring-backpressure episodes
  /// push a real event there, not just a tls tag).  `lane` is a fixed
  /// histogram lane for this stream — the flusher thread has no kv
  /// thread slot, and per-stream lanes keep its records off the
  /// mutators' cache lines.  Call before traffic; detaching (nullptr)
  /// while appenders run is not supported.
  void set_metrics(obs::LatencyHistogram* fsync_hist,
                   obs::LatencyHistogram* commit_wait_hist,
                   obs::TraceRing* trace, unsigned lane,
                   obs::Watchdog* watchdog = nullptr) noexcept {
    fsync_hist_ = fsync_hist;
    commit_wait_hist_ = commit_wait_hist;
    trace_ = trace;
    metrics_lane_ = lane;
    // Atomic: the flusher thread is already running when this is called
    // (it starts in the constructor) and polls the pointer per iteration.
    watchdog_.store(watchdog, std::memory_order_release);
  }

  /// Appends one record; returns its LSN.  Honors the stream's sync
  /// mode: kAlways blocks until the watermark covers the record.
  std::uint64_t log(RecordType type, std::uint64_t key, std::uint64_t value) {
    const std::uint64_t lsn = append(type, key, value);
    if (sync_ == SyncMode::kAlways) wait_durable(lsn);
    return lsn;
  }

  /// Appends and always waits for durability (control records such as
  /// RESIZE_BEGIN, regardless of the data sync mode).
  std::uint64_t log_durable(RecordType type, std::uint64_t key,
                            std::uint64_t value) {
    const std::uint64_t lsn = append(type, key, value);
    wait_durable(lsn);
    return lsn;
  }

  /// Deferred half of log(): after a run of plain append()s, blocks
  /// until `lsn` is durable IF the sync mode asks for per-op acks —
  /// lets batch ops append a whole group fire-and-forget and pay one
  /// wait for the last record (kv multi-ops).
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
    CrashedTail t;
    {
      std::lock_guard<std::mutex> lk(mu_);
      crashed_.store(true, std::memory_order_release);
      stop_ = true;
      cv_flush_.notify_one();
      cv_durable_.notify_all();
    }
    if (flusher_.joinable()) flusher_.join();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    t.segment_path = seg_path_;
    t.synced_bytes = synced_bytes_;
    t.written_bytes = written_bytes_;
    t.durable_lsn = durable_.load(std::memory_order_acquire);
    t.appended_lsn = reserved_.load(std::memory_order_acquire);
    return t;
  }

  /// Clean shutdown: drain the ring, write, fsync, advance the
  /// watermark to the last appended LSN.  Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) return;
      stop_ = true;
      cv_flush_.notify_one();
    }
    if (flusher_.joinable()) flusher_.join();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

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
    // the valid, LSN-contiguous prefix is kept — earlier segments
    // become closed segments, the newest resumes as the live segment
    // with its torn tail cut off.  Everything past a mid-stream gap
    // (the bit-rot case the stream reader also stops at) is deleted:
    // those records are unreachable to replay, and leaving the files
    // would collide with future rotations of the resumed live segment.
    StreamFiles mine;
    for (StreamFiles& s : list_dir(dir_).streams)
      if (s.epoch == epoch_ && s.shard == shard_) mine = std::move(s);
    std::uint64_t next_lsn = 1;
    bool have_lsn = false;
    std::size_t adopted = 0;
    for (; adopted < mine.segments.size(); ++adopted) {
      const auto& [seg, path] = mine.segments[adopted];
      std::uint64_t bytes = 0;
      const std::vector<Record> recs = read_segment(path, bytes);
      if (!recs.empty() && have_lsn && recs.front().lsn != next_lsn)
        break;  // gap: this and every later segment is garbage
      struct ::stat st{};
      const bool torn = ::stat(path.c_str(), &st) != 0 ||
                        static_cast<std::uint64_t>(st.st_size) != bytes;
      seg_seq_ = seg;
      seg_path_ = path;
      written_bytes_ = bytes;
      live_first_lsn_ = recs.empty() ? 0 : recs.front().lsn;
      if (!recs.empty()) {
        next_lsn = recs.back().lsn + 1;
        have_lsn = true;
      }
      if (torn) {
        // Cut the torn tail; segments after a torn one are unreachable.
        ::truncate(path.c_str(), static_cast<off_t>(bytes));
        ++adopted;
        break;
      }
      if (adopted + 1 < mine.segments.size()) {
        // Not the newest: closes here, unless empty (then just drop it).
        if (!recs.empty())
          closed_.push_back({path, recs.front().lsn, recs.back().lsn});
        else
          ::unlink(path.c_str());
      }
    }
    for (std::size_t i = adopted; i < mine.segments.size(); ++i)
      ::unlink(mine.segments[i].second.c_str());
    // If the newest adopted segment had been registered as closed (it
    // was followed only by garbage), un-register it: it is live again.
    if (!closed_.empty() && closed_.back().path == seg_path_) closed_.pop_back();
    if (seg_path_.empty()) {
      seg_seq_ = 0;
      seg_path_ = dir_ + "/" + segment_name(epoch_, shard_, seg_seq_);
      written_bytes_ = 0;
    }
    fd_ = ::open(seg_path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd_ >= 0) ::fdatasync(fd_);  // adopted bytes count as durable
    synced_bytes_ = written_bytes_;
    reserved_.store(next_lsn - 1, std::memory_order_release);
    consumed_pub_.store(next_lsn - 1, std::memory_order_release);
    durable_.store(next_lsn - 1, std::memory_order_release);
    consumed_ = next_lsn - 1;
    seg_first_lsn_ = live_first_lsn_ != 0 ? live_first_lsn_ : next_lsn;
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
    std::uint64_t buf_last = 0;
    // Heartbeat: this thread starts before set_metrics runs, so the
    // watchdog is picked up lazily.  Armed per iteration (fresh episode
    // each pass), disarmed across the idle waits — an idle stream is
    // not a stalled one; a wedged write/fsync is.
    obs::Watchdog* wd = nullptr;
    std::size_t hb = obs::kNoSlot;
    for (;;) {
      if (wd == nullptr) {
        wd = watchdog_.load(std::memory_order_acquire);
        if (wd != nullptr) hb = wd->acquire_slot();
      }
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
        // Previous batch fully on disk: collect the next contiguous
        // published prefix, capped at the rotation boundary.
        buf.clear();
        buf_off = 0;
        std::uint64_t next = consumed_ + 1;
        while (buf.size() < (cap_ << 5) &&
               !(rotate_goal != 0 && next > rotate_goal)) {
          Slot& s = ring_[(next - 1) & (cap_ - 1)];
          if (s.seq.load(std::memory_order_acquire) != next) break;
          Record r{s.type, next, s.key, s.value};
          buf.resize(buf.size() + kRecordSize);
          encode_record(r, buf.data() + buf.size() - kRecordSize);
          ++next;
        }
        buf_last = next - 1;
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
                              group_records_;
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
      std::uint64_t last = buf_off == buf.size() ? buf_last : consumed_;
      if (buf_off == buf.size()) {
        buf.clear();
        buf_off = 0;
        std::uint64_t next = last + 1;
        for (;;) {
          Slot& s = ring_[(next - 1) & (cap_ - 1)];
          if (s.seq.load(std::memory_order_acquire) != next) break;
          Record r{s.type, next, s.key, s.value};
          buf.resize(buf.size() + kRecordSize);
          encode_record(r, buf.data() + buf.size() - kRecordSize);
          ++next;
        }
        if (write_some(buf.data(), buf.size()) == buf.size()) last = next - 1;
      }
      consumed_ = last;
      consumed_pub_.store(consumed_, std::memory_order_release);
      if (::fdatasync(fd_) == 0) {
        fsyncs_.fetch_add(1, std::memory_order_relaxed);
        synced_bytes_ = written_bytes_;
        durable_.store(consumed_, std::memory_order_release);
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        cv_durable_.notify_all();
      }
    }
  }

  /// Writes as much as the kernel takes; returns bytes written (may be
  /// short on ENOSPC/EIO — the caller retries the remainder later).
  std::size_t write_some(const unsigned char* p, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t w = ::write(fd_, p + done, n - done);
      if (w <= 0) break;
      done += static_cast<std::size_t>(w);
      written_bytes_ += static_cast<std::uint64_t>(w);
    }
    return done;
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
    if (fd_ < 0) return;
    const std::uint64_t t0 =
        fsync_hist_ != nullptr ? obs::now_ticks() : 0;
    if (::fdatasync(fd_) != 0) return;
    if (fsync_hist_ != nullptr)
      fsync_hist_->record(obs::ticks_to_ns(obs::now_ticks() - t0),
                          metrics_lane_);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    synced_bytes_ = written_bytes_;
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
      const std::uint64_t t0 =
          fsync_hist_ != nullptr ? obs::now_ticks() : 0;
      ::fdatasync(fd_);
      if (fsync_hist_ != nullptr)
        fsync_hist_->record(obs::ticks_to_ns(obs::now_ticks() - t0),
                            metrics_lane_);
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
      synced_bytes_ = written_bytes_;
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
    if (trace_ != nullptr)
      trace_->push(obs::OpKind::kWalAppend, shard_,
                   obs::ticks_to_ns(obs::now_ticks() - t0),
                   obs::TraceCause::kWalBackpressure);
  }

  void wait_durable(std::uint64_t lsn) {
    if (durable_.load(std::memory_order_acquire) >= lsn) return;
    // This op is now group-commit bound: tag it so a slow-op trace can
    // attribute the latency, and time the wait itself.
    const std::uint64_t t0 =
        commit_wait_hist_ != nullptr ? obs::now_ticks() : 0;
    if (commit_wait_hist_ != nullptr)
      obs::stall_note(obs::TraceCause::kWalBackpressure, shard_);
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_flush_.notify_one();  // don't ride out the idle timeout
      cv_durable_.wait(lk, [&] {
        return durable_.load(std::memory_order_acquire) >= lsn ||
               crashed_.load(std::memory_order_acquire) || stop_;
      });
    }
    if (commit_wait_hist_ != nullptr)
      commit_wait_hist_->record(obs::ticks_to_ns(obs::now_ticks() - t0),
                                metrics_lane_);
  }

  const std::string dir_;
  const std::uint64_t epoch_;
  const unsigned shard_;
  const SyncMode sync_;
  const std::uint32_t flush_idle_us_;
  const std::uint64_t group_records_;
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

  // Latency probes (null when the store runs without metrics).
  obs::LatencyHistogram* fsync_hist_ = nullptr;
  obs::LatencyHistogram* commit_wait_hist_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  unsigned metrics_lane_ = 0;
  /// Atomic unlike the probes above: the flusher polls it every
  /// iteration, racing the set_metrics call that happens after the
  /// thread is already running.
  std::atomic<obs::Watchdog*> watchdog_{nullptr};

  // Flusher-owned (plus mu_-guarded shared bits).
  std::uint64_t consumed_ = 0;  ///< last LSN written to the file
  int fd_ = -1;
  std::string seg_path_;
  unsigned seg_seq_ = 0;
  std::uint64_t seg_first_lsn_ = 1;
  std::uint64_t live_first_lsn_ = 0;  ///< first LSN adopted into the live seg
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
