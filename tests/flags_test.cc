#include "common/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace warpindex {
namespace {

// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& s : storage_) {
      pointers_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  FlagSet flags("test");
  int64_t n = 0;
  double eps = 0.0;
  std::string name;
  flags.AddInt64("n", &n, "count");
  flags.AddDouble("eps", &eps, "tolerance");
  flags.AddString("name", &name, "label");
  Argv argv({"prog", "--n=42", "--eps", "0.25", "--name=abc"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_EQ(name, "abc");
}

TEST(FlagsTest, BoolForms) {
  FlagSet flags("test");
  bool verbose = false;
  bool fast = true;
  flags.AddBool("verbose", &verbose, "chatty");
  flags.AddBool("fast", &fast, "speedy");
  Argv argv({"prog", "--verbose", "--nofast"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(fast);
}

TEST(FlagsTest, BoolExplicitValues) {
  FlagSet flags("test");
  bool a = false;
  bool b = true;
  flags.AddBool("a", &a, "");
  flags.AddBool("b", &b, "");
  Argv argv({"prog", "--a=true", "--b=0"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagSet flags("test");
  int64_t n = 0;
  flags.AddInt64("n", &n, "count");
  Argv argv({"prog", "--bogus=1"});
  EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()));
}

TEST(FlagsTest, BadValueFails) {
  FlagSet flags("test");
  int64_t n = 0;
  flags.AddInt64("n", &n, "count");
  Argv argv({"prog", "--n=notanumber"});
  EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()));
}

// No double flag means anything by NaN or an infinity: each is a bad
// value, and the flag keeps its default.
TEST(FlagsTest, NonFiniteDoubleFails) {
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                          "1e999", "-1e999"}) {
    FlagSet flags("test");
    double eps = 4.0;
    flags.AddDouble("eps", &eps, "tolerance");
    Argv argv({"prog", "--eps", bad});
    EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv())) << bad;
    EXPECT_EQ(eps, 4.0) << bad;
  }
  FlagSet flags("test");
  double eps = 4.0;
  flags.AddDouble("eps", &eps, "tolerance");
  Argv argv({"prog", "--eps=1e-320"});  // a denormal is finite
  EXPECT_TRUE(flags.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(eps, 1e-320);
}

TEST(FlagsTest, MissingValueFails) {
  FlagSet flags("test");
  int64_t n = 0;
  flags.AddInt64("n", &n, "count");
  Argv argv({"prog", "--n"});
  EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()));
}

TEST(FlagsTest, HelpReturnsFalse) {
  FlagSet flags("test");
  Argv argv({"prog", "--help"});
  EXPECT_FALSE(flags.Parse(argv.argc(), argv.argv()));
}

TEST(FlagsTest, UsageListsFlagsWithDefaults) {
  FlagSet flags("myprog");
  int64_t n = 10;
  flags.AddInt64("n", &n, "count of things");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("myprog"), std::string::npos);
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("count of things"), std::string::npos);
  EXPECT_NE(usage.find("10"), std::string::npos);
}

TEST(FlagsTest, DefaultsSurviveWhenNotSet) {
  FlagSet flags("test");
  int64_t n = 5;
  double eps = 1.5;
  flags.AddInt64("n", &n, "");
  flags.AddDouble("eps", &eps, "");
  Argv argv({"prog", "--n=9"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()));
  EXPECT_EQ(n, 9);
  EXPECT_DOUBLE_EQ(eps, 1.5);
}

}  // namespace
}  // namespace warpindex
