#pragma once
// Durable file output shared by the persistence and observability
// layers: the one write-all loop (the WAL flusher's and the atomic
// writer's) and the one crash-atomic whole-file replace (snapshots,
// metrics dumps).

#include <cstddef>
#include <string>

#include <fcntl.h>
#include <unistd.h>

namespace wfe::util {

/// Writes as much of the `n` bytes at `p` to `fd` as the kernel takes;
/// returns the bytes written, short only when a write() fails (ENOSPC,
/// EIO, a dead fd).  The caller decides whether a short count is retried
/// or fatal.
inline std::size_t write_all(int fd, const void* p, std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(p);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, bytes + done, n - done);
    if (w <= 0) break;
    done += static_cast<std::size_t>(w);
  }
  return done;
}

/// Crash-atomic replace of `path` by the `n` bytes at `data`: write the
/// sibling `<path>.tmp`, fdatasync and close it, rename it over `path`,
/// then fsync the directory so the rename itself survives a crash.  A
/// reader sees the old file or the new one, never a torn mix.  False
/// when any step up to the rename fails; the tmp file is then removed
/// and `path` is untouched.  The directory fsync is best effort: the
/// content is already atomic by then.
inline bool replace_file(const std::string& path, const void* data,
                         std::size_t n) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_all(fd, data, n) == n && ::fdatasync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace wfe::util
