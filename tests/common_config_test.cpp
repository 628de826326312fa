// Tests for the INI-style Config parser and typed getters.

#include "qens/common/config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace qens {
namespace {

TEST(ConfigTest, ParseFlatKeys) {
  auto config = Config::Parse("a = 1\nb = hello\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->size(), 2u);
  EXPECT_TRUE(config->Has("a"));
  EXPECT_EQ(config->GetString("b").value(), "hello");
}

TEST(ConfigTest, SectionsArePrefixed) {
  auto config = Config::Parse("[data]\nstations = 10\n[workload]\nqueries = 200\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("data.stations", 0).value(), 10);
  EXPECT_EQ(config->GetInt("workload.queries", 0).value(), 200);
  EXPECT_FALSE(config->Has("stations"));
}

TEST(ConfigTest, CommentsAndBlankLines) {
  auto config = Config::Parse(
      "# full line comment\n"
      "  ; also a comment\n"
      "\n"
      "key = value   # trailing comment\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetString("key").value(), "value");
}

TEST(ConfigTest, LaterKeysOverride) {
  auto config = Config::Parse("k = 1\nk = 2\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("k", 0).value(), 2);
}

TEST(ConfigTest, WhitespaceTolerant) {
  auto config = Config::Parse("   spaced   =   out value  \n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetString("spaced").value(), "out value");
}

TEST(ConfigTest, MalformedLinesRejected) {
  EXPECT_FALSE(Config::Parse("no equals sign\n").ok());
  EXPECT_FALSE(Config::Parse("= value\n").ok());
  EXPECT_FALSE(Config::Parse("[unclosed\n").ok());
  EXPECT_FALSE(Config::Parse("[]\nk=v\n").ok());
}

TEST(ConfigTest, TypedGettersWithDefaults) {
  auto config = Config::Parse("i = 42\nd = 2.5\nb = yes\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("i", -1).value(), 42);
  EXPECT_EQ(config->GetInt("missing", -1).value(), -1);
  EXPECT_DOUBLE_EQ(config->GetDouble("d", 0).value(), 2.5);
  EXPECT_DOUBLE_EQ(config->GetDouble("missing", 9.0).value(), 9.0);
  EXPECT_TRUE(config->GetBool("b", false).value());
  EXPECT_FALSE(config->GetBool("missing", false).value());
}

TEST(ConfigTest, BoolSpellings) {
  auto config = Config::Parse(
      "t1 = true\nt2 = YES\nt3 = on\nt4 = 1\n"
      "f1 = false\nf2 = No\nf3 = off\nf4 = 0\n");
  ASSERT_TRUE(config.ok());
  for (const char* k : {"t1", "t2", "t3", "t4"}) {
    EXPECT_TRUE(config->GetBool(k, false).value()) << k;
  }
  for (const char* k : {"f1", "f2", "f3", "f4"}) {
    EXPECT_FALSE(config->GetBool(k, true).value()) << k;
  }
}

TEST(ConfigTest, PresentButUnparseableIsError) {
  auto config = Config::Parse("i = not-a-number\nb = maybe\n");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetInt("i", 0).status().IsInvalidArgument());
  EXPECT_TRUE(config->GetDouble("i", 0).status().IsInvalidArgument());
  EXPECT_TRUE(config->GetBool("b", false).status().IsInvalidArgument());
}

TEST(ConfigTest, CountsAreNotNegative) {
  auto config = Config::Parse(
      "neg = -1\nzero = 0\nlarge = 9000000000\nbad = 3x\nhuge = "
      "99999999999999999999\n");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetCount("neg", 5).status().IsInvalidArgument());
  EXPECT_EQ(config->GetCount("zero", 5).value(), 0u);
  EXPECT_EQ(config->GetCount("large", 5).value(), size_t{9000000000});
  EXPECT_TRUE(config->GetCount("bad", 5).status().IsInvalidArgument());
  EXPECT_TRUE(config->GetCount("huge", 5).status().IsInvalidArgument());
  EXPECT_EQ(config->GetCount("missing", 5).value(), 5u);
  EXPECT_EQ(config->GetCount("missing", static_cast<size_t>(-1)).value(),
            static_cast<size_t>(-1));
}

TEST(ConfigTest, GetStringMissing) {
  Config config;
  EXPECT_TRUE(config.GetString("x").status().IsNotFound());
  EXPECT_EQ(config.GetString("x", "fb"), "fb");
}

TEST(ConfigTest, SetAndKeys) {
  Config config;
  config.Set("z", "1");
  config.Set("a", "2");
  EXPECT_EQ(config.Keys(), (std::vector<std::string>{"a", "z"}));
}

TEST(ConfigTest, LoadFromFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "qens_config_test.ini")
          .string();
  {
    std::ofstream out(path);
    out << "[env]\nnodes = 5\n";
  }
  auto config = Config::Load(path);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->GetInt("env.nodes", 0).value(), 5);
  std::remove(path.c_str());
  EXPECT_TRUE(Config::Load("/no/such/file.ini").status().IsIOError());
}

}  // namespace
}  // namespace qens
