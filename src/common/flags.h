// Minimal command-line flag parsing for benchmark and example binaries.
//
// Usage:
//   FlagSet flags("fig4_scale_nseq");
//   int64_t n = 10000;
//   flags.AddInt64("n", &n, "number of data sequences");
//   if (!flags.Parse(argc, argv)) return 1;   // prints help on --help
//
// Accepted syntax: --name=value, --name value, and --flag / --noflag for
// booleans. Unknown flags are an error, and so is a double flag's value
// that is not a finite number ("nan", "inf", "1e999").

#ifndef WARPINDEX_COMMON_FLAGS_H_
#define WARPINDEX_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace warpindex {

class FlagSet {
 public:
  explicit FlagSet(std::string program_name)
      : program_name_(std::move(program_name)) {}

  void AddInt64(const std::string& name, int64_t* value,
                const std::string& help);
  void AddDouble(const std::string& name, double* value,
                 const std::string& help);
  void AddString(const std::string& name, std::string* value,
                 const std::string& help);
  void AddBool(const std::string& name, bool* value, const std::string& help);

  // Returns false (after printing a message to stderr/stdout) if parsing
  // fails or --help was requested.
  bool Parse(int argc, char** argv);

  // Renders the usage text.
  std::string Usage() const;

 private:
  enum class Type { kInt64, kDouble, kString, kBool };

  struct Flag {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_repr;
  };

  const Flag* Find(const std::string& name) const;
  bool SetValue(const Flag& flag, const std::string& text) const;

  std::string program_name_;
  std::vector<Flag> flags_;
};

}  // namespace warpindex

#endif  // WARPINDEX_COMMON_FLAGS_H_
