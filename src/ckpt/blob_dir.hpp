// Named byte blobs, held in memory or as crash-consistent files.
//
// Both checkpoint layouts keep their bytes in BlobDirs: the flat store's
// SWTC blobs and the weight bank's packs and manifests.  A BlobDir decides
// where bytes live and how files stay whole across a kill; what the bytes
// mean, how an access is priced and which adopted blobs to keep on reopen
// stay with its owner.  On disk, blob `name` is the file `<dir>/<name><ext>`,
// written through fsio::atomic_write_file (tmp + fsync + rename).  A get
// reads a whole blob or one byte range of it (a pread): the bank reads one
// chunk frame out of a pack that way.
//
// Not synchronised: every owner already serialises access under its own
// mutex.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace swt {

class BlobDir {
 public:
  /// Keeps blobs in memory when `dir` is empty.  Otherwise creates `dir` if
  /// missing, adopts every `<ext>` file a previous process left in it and
  /// deletes the ".tmp" debris of writers that died mid-put.
  BlobDir(std::filesystem::path dir, std::string ext);

  /// Store `bytes` under `name`, replacing any previous blob.  A disk put is
  /// durable when it returns; throws std::runtime_error when it fails.
  void put(const std::string& name, std::vector<std::byte> bytes);

  /// The bytes under `name`; empty for unknown names.  Throws
  /// std::runtime_error when the file of a known name cannot be read.
  [[nodiscard]] std::optional<std::vector<std::byte>> get(const std::string& name) const;

  /// `length` bytes at `offset` of the blob under `name` (one pread on
  /// disk); empty for unknown names.  Throws std::runtime_error when the
  /// range runs past the blob's end or its file cannot be read.
  [[nodiscard]] std::optional<std::vector<std::byte>> get(const std::string& name,
                                                          std::size_t offset,
                                                          std::size_t length) const;

  /// Drop `name` and, on disk, any staging sibling a killed writer left
  /// beside it.  Returns true when something was removed.
  bool remove(const std::string& name);

  /// Byte length of every blob by name: what put() stored, or the file size
  /// adopted at open.
  [[nodiscard]] const std::map<std::string, std::size_t>& sizes() const noexcept {
    return sizes_;
  }

 private:
  [[nodiscard]] std::filesystem::path path_of(const std::string& name) const;

  std::filesystem::path dir_;  ///< empty = memory
  std::string ext_;
  std::map<std::string, std::vector<std::byte>> memory_;
  std::map<std::string, std::size_t> sizes_;
};

}  // namespace swt
