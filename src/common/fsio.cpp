#include "common/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace swt::fsio {

namespace {

[[noreturn]] void fail(const std::string& what, const std::filesystem::path& path) {
  throw std::runtime_error("fsio: " + what + " failed for " + path.string() + ": " +
                           std::strerror(errno));
}

/// write(2) until every byte is out (short writes and EINTR are resumed).
void write_all(int fd, const char* data, std::size_t size,
               const std::filesystem::path& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::filesystem::path& path) {
  if (::fsync(fd) != 0) fail("fsync", path);
}

}  // namespace

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("open(read)", path);
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("read", path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

std::vector<std::byte> read_file_range(const std::filesystem::path& path,
                                       std::size_t offset, std::size_t length) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("open(read)", path);
  std::vector<std::byte> bytes(length);
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(fd, bytes.data() + done, length - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const int err = n == 0 ? EIO : errno;  // n == 0: the file ends inside the range
      ::close(fd);
      errno = err;
      fail("pread", path);
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return bytes;
}

std::filesystem::path tmp_sibling(const std::filesystem::path& path) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  return tmp;
}

void atomic_write_file(const std::filesystem::path& path, const void* data,
                       std::size_t size, bool sync) {
  const std::filesystem::path tmp = tmp_sibling(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("open", tmp);
  try {
    write_all(fd, static_cast<const char*>(data), size, tmp);
    if (sync) fsync_fd(fd, tmp);
  } catch (...) {
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  if (::close(fd) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    fail("close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    fail("rename", path);
  }
  // The rename itself is only durable once the directory entry is synced.
  if (sync) fsync_dir(path.has_parent_path() ? path.parent_path() : ".");
}

void atomic_write_file(const std::filesystem::path& path, const std::string& data,
                       bool sync) {
  atomic_write_file(path, data.data(), data.size(), sync);
}

void fsync_dir(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("open(dir)", dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) fail("fsync(dir)", dir);
}

DurableAppender::DurableAppender(const std::filesystem::path& path,
                                 bool sync_each_append)
    : sync_each_append_(sync_each_append), path_(path.string()) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) fail("open(append)", path);
}

DurableAppender::~DurableAppender() {
  if (fd_ >= 0) ::close(fd_);
}

DurableAppender::DurableAppender(DurableAppender&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      sync_each_append_(other.sync_each_append_),
      path_(std::move(other.path_)) {}

void DurableAppender::append(const std::string& record) {
  write_all(fd_, record.data(), record.size(), path_);
  if (sync_each_append_) fsync_fd(fd_, path_);
}

void DurableAppender::sync() { fsync_fd(fd_, path_); }

}  // namespace swt::fsio
