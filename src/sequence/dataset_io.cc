#include "sequence/dataset_io.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace warpindex {

Status ParseSequenceLine(const std::string& line, Sequence* out) {
  Sequence result;
  const char* cursor = line.c_str();
  const char* end = cursor + line.size();
  while (cursor < end) {
    // Skip separators.
    while (cursor < end &&
           (*cursor == ',' || std::isspace(static_cast<unsigned char>(
                                  *cursor)) != 0)) {
      ++cursor;
    }
    if (cursor >= end) {
      break;
    }
    char* token_end = nullptr;
    const double v = std::strtod(cursor, &token_end);
    if (token_end == cursor) {
      return Status::InvalidArgument(std::string("bad token at: ") + cursor);
    }
    if (!std::isfinite(v)) {
      const std::string token(cursor,
                              static_cast<size_t>(token_end - cursor));
      return Status::InvalidArgument("non-finite value: " + token);
    }
    result.Append(v);
    cursor = token_end;
  }
  if (result.empty()) {
    return Status::InvalidArgument("no values on line");
  }
  *out = std::move(result);
  return Status::Ok();
}

Status LoadDatasetFromCsv(const std::string& path, Dataset* out) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  Dataset dataset;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Skip blanks and comments.
    size_t first = 0;
    while (first < line.size() &&
           std::isspace(static_cast<unsigned char>(line[first])) != 0) {
      ++first;
    }
    if (first == line.size() || line[first] == '#') {
      continue;
    }
    Sequence s;
    const Status status = ParseSequenceLine(line, &s);
    if (!status.ok()) {
      std::ostringstream err;
      err << path << ":" << line_number << ": " << status.message();
      return Status::InvalidArgument(err.str());
    }
    dataset.Add(std::move(s));
  }
  if (in.bad()) {
    return Status::IoError("read error: " + path);
  }
  *out = std::move(dataset);
  return Status::Ok();
}

Status SaveDatasetToCsv(const std::string& path, const Dataset& dataset) {
  std::ofstream outfile(path);
  if (!outfile) {
    return Status::IoError("cannot open for writing: " + path);
  }
  char buf[64];
  for (const Sequence& s : dataset.sequences()) {
    for (size_t i = 0; i < s.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", s[i]);
      if (i > 0) {
        outfile << ',';
      }
      outfile << buf;
    }
    outfile << '\n';
  }
  outfile.flush();
  if (!outfile) {
    return Status::IoError("write error: " + path);
  }
  return Status::Ok();
}

}  // namespace warpindex
