// Crash-consistent filesystem primitives.
//
// Everything durable in this project (checkpoint blobs, the run journal, the
// run manifest, registry appends) goes through these helpers so the on-disk
// state is well-defined at *every* instant a process can die:
//
//   - atomic_write_file: write to a ".tmp" sibling, fsync the data, rename()
//     into place, fsync the parent directory.  Readers see either the old
//     complete file or the new complete file, never a torn mixture, and the
//     rename survives a power cut once the call returns.
//   - DurableAppender: an O_APPEND fd wrapper issuing one write(2) per
//     record plus an optional fsync, so concurrent/killed writers cannot
//     interleave bytes and a crash can tear at most the final record.
//
// POSIX-only by design (the repo already assumes Linux: gmtime_r, fork-based
// crash tests); no directory-handle caching — durability over microseconds.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace swt::fsio {

/// Read a whole file into memory.  Throws std::runtime_error when the file
/// cannot be opened or shrinks mid-read (readers of atomically-renamed
/// files never see growth, only replacement).
[[nodiscard]] std::vector<std::byte> read_file(const std::filesystem::path& path);

/// Read `length` bytes at `offset` with pread(2).  Throws std::runtime_error
/// when the file cannot be opened or ends before `offset + length`.
[[nodiscard]] std::vector<std::byte> read_file_range(const std::filesystem::path& path,
                                                     std::size_t offset, std::size_t length);

/// Atomically replace `path` with `data`: tmp sibling -> fsync -> rename,
/// then fsync the parent directory.  Throws std::runtime_error on any
/// failure (the tmp sibling is unlinked on the error path).  `sync = false`
/// keeps the tmp+rename atomicity but skips both fsyncs (for callers that
/// only need crash *consistency*, not durability against power loss).
void atomic_write_file(const std::filesystem::path& path, const void* data,
                       std::size_t size, bool sync = true);
void atomic_write_file(const std::filesystem::path& path, const std::string& data,
                       bool sync = true);

/// The ".tmp" sibling atomic_write_file stages through (exposed so stores
/// can clean up debris from crashed writers).
[[nodiscard]] std::filesystem::path tmp_sibling(const std::filesystem::path& path);

/// fsync a directory so a completed rename/create inside it is durable.
/// Throws std::runtime_error when the directory cannot be opened or synced.
void fsync_dir(const std::filesystem::path& dir);

/// Append-only record writer over an O_APPEND file descriptor.
class DurableAppender {
 public:
  /// Opens (creating if missing) `path` for appending.  `sync_each_append`
  /// issues fsync after every record (crash loses at most the in-flight
  /// record); false defers durability to the kernel's writeback.
  explicit DurableAppender(const std::filesystem::path& path,
                           bool sync_each_append = true);
  ~DurableAppender();

  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;
  DurableAppender(DurableAppender&& other) noexcept;
  DurableAppender& operator=(DurableAppender&&) = delete;

  /// One record = one write(2) (short writes are resumed), then fsync when
  /// enabled.  Throws std::runtime_error on I/O failure.
  void append(const std::string& record);

  /// Force an fsync now (used before intentionally dying in tests).
  void sync();

 private:
  int fd_ = -1;
  bool sync_each_append_ = true;
  std::string path_;  // for error messages
};

}  // namespace swt::fsio
