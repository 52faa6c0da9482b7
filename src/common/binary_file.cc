#include "common/binary_file.h"

namespace warpindex {

BinaryReader::BinaryReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path) {
  if (file_ == nullptr) {
    return;
  }
  std::FILE* f = file_.get();
  const long size =
      std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : long{-1};
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    file_.reset();
    return;
  }
  size_ = static_cast<uint64_t>(size);
}

bool BinaryReader::Read(void* data, size_t n) {
  if (!Holds(n, 1) ||
      (n > 0 && std::fread(data, 1, n, file_.get()) != n)) {
    return false;
  }
  pos_ += n;
  return true;
}

Status BinaryReader::ShortRead(const std::string& what) const {
  return std::ferror(file_.get()) != 0
             ? Status::IoError("read error: " + path_)
             : Status::InvalidArgument("truncated " + what + ": " + path_);
}

}  // namespace warpindex
