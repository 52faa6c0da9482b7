// Binary file IO for the saved formats (dataset.wids, index.wirt,
// manifest.wism, tombstones.bin): raw host-order values, no padding.
//
// The reader knows how many bytes the file has left, so a loader checks
// every count a header claims against the file before it sizes anything
// by it: a lying count is a typed error, never an allocation failure.

#ifndef WARPINDEX_COMMON_BINARY_FILE_H_
#define WARPINDEX_COMMON_BINARY_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/status.h"

namespace warpindex {

namespace binary_file_internal {
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;
}  // namespace binary_file_internal

class BinaryWriter {
 public:
  // Creates or truncates `path`; is_open() tells whether that worked.
  explicit BinaryWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {}

  bool is_open() const { return file_ != nullptr; }

  // Appends `n` bytes (`data` may be null when n is 0). A short write is
  // remembered for Finish().
  void Write(const void* data, size_t n) {
    ok_ = ok_ && (n == 0 || std::fwrite(data, 1, n, file_.get()) == n);
  }
  template <typename T>
  void Write(const T& value) {
    Write(&value, sizeof(T));
  }

  // Closes the file; true when every write and the close succeeded.
  // Requires is_open(); call once (the destructor closes it otherwise).
  bool Finish() { return std::fclose(file_.release()) == 0 && ok_; }

 private:
  binary_file_internal::FileHandle file_;
  bool ok_ = true;
};

class BinaryReader {
 public:
  // Opens and measures `path`; is_open() tells whether both worked.
  explicit BinaryReader(const std::string& path);

  bool is_open() const { return file_ != nullptr; }

  // Reads `n` bytes (`data` may be null when n is 0); false when the file
  // ends first or the read fails.
  bool Read(void* data, size_t n);
  template <typename T>
  bool Read(T* value) {
    return Read(value, sizeof(T));
  }

  // True when `count` items of `item_bytes` each fit in the bytes left.
  bool Holds(uint64_t count, uint64_t item_bytes) const {
    return count <= (size_ - pos_) / item_bytes;
  }

  // The error for a Read that returned false: kIoError when reading
  // failed, kInvalidArgument ("truncated <what>") when the file ended
  // before its layout says it does.
  Status ShortRead(const std::string& what) const;

 private:
  binary_file_internal::FileHandle file_;
  std::string path_;
  uint64_t size_ = 0;
  uint64_t pos_ = 0;
};

}  // namespace warpindex

#endif  // WARPINDEX_COMMON_BINARY_FILE_H_
