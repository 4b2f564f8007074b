// Little-endian wire primitives shared by the checkpoint codec and the
// weight bank's chunk and manifest frames.  Writer appends into a byte
// buffer; Reader consumes one with hard bounds checks (truncation throws
// std::runtime_error, and so does a count the remaining bytes cannot hold).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace swt::wire {

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  /// Length-prefixed byte blob (u64 size + raw bytes), the dual of
  /// Reader::blob.  Used by the weight bank's chunk frames.
  void blob(const std::vector<std::byte>& b) {
    u64(b.size());
    raw(b.data(), b.size());
  }
  [[nodiscard]] std::vector<std::byte>& bytes() noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

class Reader {
 public:
  Reader(const std::byte* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }
  std::vector<std::byte> blob() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::byte> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }
  /// A u64 element count for elements of at least `min_bytes` each.  A
  /// count the remaining bytes cannot hold throws here, before the caller
  /// reserves or allocates for it.
  std::uint64_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_bytes) throw std::runtime_error("wire: count exceeds stream");
    return n;
  }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  template <typename T>
  T get() {
    T v;
    raw(&v, sizeof v);
    return v;
  }
  void need(std::uint64_t n) const {
    // `pos_ + n` could wrap for n near 2^64; `size_ - pos_` cannot.
    if (n > size_ - pos_) throw std::runtime_error("wire: truncated stream");
  }
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace swt::wire
