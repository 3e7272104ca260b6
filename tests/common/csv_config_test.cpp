#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/csv.h"

namespace bdps {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "bdps_csv_test.csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row({"1", "2"});
    csv.row_values(3.5, "x");
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2\n3.5,x\n");
}

TEST_F(CsvWriterTest, EscapesSeparatorsAndQuotes) {
  {
    CsvWriter csv(path_, {"v"});
    csv.row({"a,b"});
    csv.row({"say \"hi\""});
    csv.row({"line\nbreak"});
  }
  EXPECT_EQ(read_file(path_),
            "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line\nbreak\"\n");
}

TEST(KeyValueConfig, ParsesArgs) {
  const char* argv[] = {"prog", "rate=12.5", "out=x.csv", "positional",
                        "flag=true"};
  const auto config = KeyValueConfig::from_args(5, argv);
  EXPECT_DOUBLE_EQ(config.get_double("rate", 0.0), 12.5);
  EXPECT_EQ(config.get_string("out", ""), "x.csv");
  EXPECT_TRUE(config.get_bool("flag", false));
  ASSERT_EQ(config.positional().size(), 1u);
  EXPECT_EQ(config.positional()[0], "positional");
}

TEST(KeyValueConfig, FallbacksWhenMissing) {
  const char* argv[] = {"prog", "n=abc"};
  const auto config = KeyValueConfig::from_args(2, argv);
  EXPECT_EQ(config.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(config.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(config.get_bool("missing", true));
  EXPECT_FALSE(config.has("missing"));
  EXPECT_TRUE(config.has("n"));
}

/// A present value that does not parse whole is an error, never the
/// fallback: the message names the key and the value.
TEST(KeyValueConfig, RejectsMalformedValues) {
  const char* argv[] = {"prog",       "minutes=abc", "seed=5x",
                        "multipath=maybe", "empty=",  "rate=1.5s",
                        "big=3000000000",  "rates=1,x,3", "tail=2,3.5q"};
  const auto config = KeyValueConfig::from_args(9, argv);
  const auto message = [](const auto& get) -> std::string {
    try {
      get();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message([&] { config.get_double("minutes", 5.0); }),
            "bad value for minutes: 'abc'");
  EXPECT_EQ(message([&] { config.get_int("seed", 1); }),
            "bad value for seed: '5x'");
  EXPECT_EQ(message([&] { config.get_bool("multipath", false); }),
            "bad value for multipath: 'maybe'");
  EXPECT_EQ(message([&] { config.get_double_list("rates", {}); }),
            "bad value for rates: 'x'");
  EXPECT_THROW(config.get_double("empty", 1.0), std::invalid_argument);
  EXPECT_THROW(config.get_int("empty", 1), std::invalid_argument);
  EXPECT_THROW(config.get_bool("empty", true), std::invalid_argument);
  EXPECT_THROW(config.get_double("rate", 1.0), std::invalid_argument);
  EXPECT_THROW(config.get_int("rate", 1), std::invalid_argument);
  EXPECT_THROW(config.get_int("big", 1), std::invalid_argument);
  EXPECT_THROW(config.get_double_list("tail", {}), std::invalid_argument);
  // An empty value is an empty list, so the fallback.
  EXPECT_EQ(config.get_double_list("empty", {4.0}), std::vector<double>{4.0});
}

TEST(KeyValueConfig, BoolSpellings) {
  const char* argv[] = {"prog", "a=1", "b=off", "c=yes", "d=false"};
  const auto config = KeyValueConfig::from_args(5, argv);
  EXPECT_TRUE(config.get_bool("a", false));
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_FALSE(config.get_bool("d", true));
}

TEST(KeyValueConfig, DoubleLists) {
  const char* argv[] = {"prog", "rates=1,3.5,15"};
  const auto config = KeyValueConfig::from_args(2, argv);
  const auto rates = config.get_double_list("rates", {});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 3.5);
  EXPECT_DOUBLE_EQ(rates[2], 15.0);
  const auto fallback = config.get_double_list("missing", {2.0});
  ASSERT_EQ(fallback.size(), 1u);
}

TEST(KeyValueConfig, FromTextWithComments) {
  const auto config = KeyValueConfig::from_text(
      "# comment line\nrate = 10 # trailing\n\nname = hello\n");
  EXPECT_DOUBLE_EQ(config.get_double("rate", 0.0), 10.0);
  EXPECT_EQ(config.get_string("name", ""), "hello");
}

TEST(KeyValueConfig, SetOverrides) {
  KeyValueConfig config;
  config.set("k", "1");
  config.set("k", "2");
  EXPECT_EQ(config.get_int("k", 0), 2);
}

}  // namespace
}  // namespace bdps
