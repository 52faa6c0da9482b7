#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace warpindex {
namespace {

std::string Repr(int64_t v) { return std::to_string(v); }

std::string Repr(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

void FlagSet::AddInt64(const std::string& name, int64_t* value,
                       const std::string& help) {
  flags_.push_back({name, Type::kInt64, value, help, Repr(*value)});
}

void FlagSet::AddDouble(const std::string& name, double* value,
                        const std::string& help) {
  flags_.push_back({name, Type::kDouble, value, help, Repr(*value)});
}

void FlagSet::AddString(const std::string& name, std::string* value,
                        const std::string& help) {
  flags_.push_back({name, Type::kString, value, help, *value});
}

void FlagSet::AddBool(const std::string& name, bool* value,
                      const std::string& help) {
  flags_.push_back(
      {name, Type::kBool, value, help, *value ? "true" : "false"});
}

const FlagSet::Flag* FlagSet::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool FlagSet::SetValue(const Flag& flag, const std::string& text) const {
  char* end = nullptr;
  switch (flag.type) {
    case Type::kInt64: {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return false;
      }
      *static_cast<int64_t*>(flag.target) = v;
      return true;
    }
    case Type::kDouble: {
      // Finite only: no flag means anything by NaN or an infinity.
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
        return false;
      }
      *static_cast<double*>(flag.target) = v;
      return true;
    }
    case Type::kString:
      *static_cast<std::string*>(flag.target) = text;
      return true;
    case Type::kBool:
      if (text == "true" || text == "1") {
        *static_cast<bool*>(flag.target) = true;
        return true;
      }
      if (text == "false" || text == "0") {
        *static_cast<bool*>(flag.target) = false;
        return true;
      }
      return false;
  }
  return false;
}

bool FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n%s",
                   program_name_.c_str(), arg.c_str(), Usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const Flag* flag = Find(arg);
    if (flag == nullptr && !has_value && arg.rfind("no", 0) == 0) {
      // --noflag form for booleans.
      const Flag* negated = Find(arg.substr(2));
      if (negated != nullptr && negated->type == Type::kBool) {
        *static_cast<bool*>(negated->target) = false;
        continue;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n%s",
                   program_name_.c_str(), arg.c_str(), Usage().c_str());
      return false;
    }
    if (!has_value) {
      if (flag->type == Type::kBool) {
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '--%s' expects a value\n",
                     program_name_.c_str(), arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!SetValue(*flag, value)) {
      std::fprintf(stderr, "%s: bad value '%s' for flag '--%s'\n",
                   program_name_.c_str(), value.c_str(), arg.c_str());
      return false;
    }
  }
  return true;
}

std::string FlagSet::Usage() const {
  std::ostringstream os;
  os << "usage: " << program_name_ << " [flags]\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name << "  " << flag.help
       << " (default: " << flag.default_repr << ")\n";
  }
  return os.str();
}

}  // namespace warpindex
