#include "ckpt/blob_dir.hpp"

#include <stdexcept>
#include <utility>

#include "common/fsio.hpp"

namespace swt {

BlobDir::BlobDir(std::filesystem::path dir, std::string ext)
    : dir_(std::move(dir)), ext_(std::move(ext)) {
  if (dir_.empty()) return;
  std::filesystem::create_directories(dir_);
  // Thanks to the tmp+rename write protocol a present `<ext>` file is always
  // a complete rename target; whether its *content* is intact is for the
  // owner's decoder (CRC trailers) to judge at read time.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() == ".tmp") {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    } else if (p.extension() == ext_) {
      sizes_[p.stem().string()] = static_cast<std::size_t>(entry.file_size());
    }
  }
}

std::filesystem::path BlobDir::path_of(const std::string& name) const {
  return dir_ / (name + ext_);
}

void BlobDir::put(const std::string& name, std::vector<std::byte> bytes) {
  if (dir_.empty()) {
    sizes_[name] = bytes.size();
    memory_[name] = std::move(bytes);
    return;
  }
  fsio::atomic_write_file(path_of(name), bytes.data(), bytes.size());
  sizes_[name] = bytes.size();
}

std::optional<std::vector<std::byte>> BlobDir::get(const std::string& name) const {
  if (!sizes_.contains(name)) return std::nullopt;
  if (dir_.empty()) return memory_.at(name);
  return fsio::read_file(path_of(name));
}

std::optional<std::vector<std::byte>> BlobDir::get(const std::string& name,
                                                   std::size_t offset,
                                                   std::size_t length) const {
  const auto it = sizes_.find(name);
  if (it == sizes_.end()) return std::nullopt;
  if (offset > it->second || length > it->second - offset)
    throw std::runtime_error("blob dir: range past the end of " + name + ext_);
  if (dir_.empty()) {
    const std::vector<std::byte>& bytes = memory_.at(name);
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(offset);
    return std::vector<std::byte>(first, first + static_cast<std::ptrdiff_t>(length));
  }
  return fsio::read_file_range(path_of(name), offset, length);
}

bool BlobDir::remove(const std::string& name) {
  const bool known = sizes_.erase(name) > 0;
  memory_.erase(name);
  if (dir_.empty()) return known;
  std::error_code ec;
  const bool removed = std::filesystem::remove(path_of(name), ec);
  // A leftover ".tmp" sibling (writer killed between staging and rename)
  // must not survive the blob it belongs to.
  std::filesystem::remove(fsio::tmp_sibling(path_of(name)), ec);
  return known || removed;
}

}  // namespace swt
