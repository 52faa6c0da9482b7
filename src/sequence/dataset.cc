#include "sequence/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/binary_file.h"

namespace warpindex {
namespace {

constexpr char kMagic[4] = {'W', 'I', 'D', 'S'};
constexpr uint32_t kVersion = 1;

}  // namespace

Dataset::Dataset(std::vector<Sequence> sequences)
    : sequences_(std::move(sequences)) {
  for (size_t i = 0; i < sequences_.size(); ++i) {
    sequences_[i].set_id(static_cast<SequenceId>(i));
  }
}

void Dataset::Add(Sequence s) {
  s.set_id(static_cast<SequenceId>(sequences_.size()));
  sequences_.push_back(std::move(s));
}

DatasetStats Dataset::ComputeStats() const {
  DatasetStats stats;
  stats.num_sequences = sequences_.size();
  if (sequences_.empty()) {
    return stats;
  }
  stats.min_length = std::numeric_limits<size_t>::max();
  stats.global_min = std::numeric_limits<double>::infinity();
  stats.global_max = -std::numeric_limits<double>::infinity();
  for (const Sequence& s : sequences_) {
    stats.total_elements += s.size();
    stats.min_length = std::min(stats.min_length, s.size());
    stats.max_length = std::max(stats.max_length, s.size());
    for (double v : s.elements()) {
      stats.global_min = std::min(stats.global_min, v);
      stats.global_max = std::max(stats.global_max, v);
    }
  }
  stats.avg_length = static_cast<double>(stats.total_elements) /
                     static_cast<double>(stats.num_sequences);
  return stats;
}

Status Dataset::SaveToFile(const std::string& path) const {
  // LoadFromFile refuses an empty row, so one is refused here, before the
  // file is created: every file this writes reopens.
  for (size_t i = 0; i < sequences_.size(); ++i) {
    if (sequences_[i].empty()) {
      return Status::InvalidArgument("no elements in row " +
                                     std::to_string(i) + " for " + path);
    }
  }
  BinaryWriter out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.Write(kMagic, sizeof(kMagic));
  out.Write(kVersion);
  out.Write(uint64_t{sequences_.size()});
  for (const Sequence& s : sequences_) {
    out.Write(uint64_t{s.size()});
    out.Write(s.data(), s.size() * sizeof(double));
  }
  return out.Finish() ? Status::Ok() : Status::IoError("short write: " + path);
}

Status Dataset::LoadFromFile(const std::string& path, Dataset* out) {
  BinaryReader in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (!in.Read(magic, sizeof(magic)) || !in.Read(&version) ||
      !in.Read(&count)) {
    return in.ShortRead("dataset file");
  }
  if (!std::equal(magic, magic + 4, kMagic)) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported dataset version in " + path);
  }
  // A row is its length word plus at least one element.
  if (!in.Holds(count, sizeof(uint64_t) + sizeof(double))) {
    return Status::InvalidArgument("row count exceeds the file in " + path);
  }
  const auto bad_row = [&path](const char* what, uint64_t i) {
    return Status::InvalidArgument(std::string(what) + " in row " +
                                   std::to_string(i) + " of " + path);
  };
  std::vector<Sequence> sequences;
  sequences.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!in.Read(&len)) {
      return in.ShortRead("dataset file");
    }
    if (len == 0) {
      return bad_row("no elements", i);
    }
    if (!in.Holds(len, sizeof(double))) {
      return bad_row("length exceeds the file", i);
    }
    std::vector<double> elements(len);
    if (!in.Read(elements.data(), len * sizeof(double))) {
      return in.ShortRead("dataset file");
    }
    if (!std::all_of(elements.begin(), elements.end(),
                     [](double v) { return std::isfinite(v); })) {
      return bad_row("non-finite element", i);
    }
    sequences.emplace_back(std::move(elements));
  }
  *out = Dataset(std::move(sequences));
  return Status::Ok();
}

}  // namespace warpindex
