#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "temp_dir.h"

namespace bcn {
namespace {

TEST(JsonWriterTest, InsertionOrderAndTypes) {
  JsonWriter w;
  w.add("name", "sweep");
  w.add("cells", 81);
  w.add("speedup", 3.5);
  w.add("ok", true);
  const std::string s = w.to_string();
  // Keys appear in insertion order.
  EXPECT_LT(s.find("\"name\""), s.find("\"cells\""));
  EXPECT_LT(s.find("\"cells\""), s.find("\"speedup\""));
  EXPECT_NE(s.find("\"name\": \"sweep\""), std::string::npos);
  EXPECT_NE(s.find("\"cells\": 81"), std::string::npos);
  EXPECT_NE(s.find("\"speedup\": 3.5"), std::string::npos);
  EXPECT_NE(s.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '\n');
}

TEST(JsonWriterTest, QuoteEscapesSpecials) {
  EXPECT_EQ(JsonWriter::quote("plain"), "\"plain\"");
  EXPECT_EQ(JsonWriter::quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonWriter::quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonWriter::quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonWriter::quote("tab\there"), "\"tab\\there\"");
  // Control characters use \u00XX.
  EXPECT_EQ(JsonWriter::quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonWriterTest, DoubleFormatRoundTripsAndHandlesNonFinite) {
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonWriter::format(v)), v);
  EXPECT_EQ(JsonWriter::format(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonWriter::format(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::format(2.0), "2");
}

TEST(JsonWriterTest, NumberArray) {
  JsonWriter w;
  w.add("walls", std::vector<double>{0.5, 1.25});
  EXPECT_NE(w.to_string().find("[0.5, 1.25]"), std::string::npos);
}

TEST(JsonWriterTest, WriteFileCreatesParentDirs) {
  const auto dir = testutil::test_temp_dir("bcn_json_test") / "nested";
  std::filesystem::remove_all(dir.parent_path());
  JsonWriter w;
  w.add("k", 1);
  const auto path = dir / "out.json";
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), w.to_string());
  std::filesystem::remove_all(dir.parent_path());
}

TEST(FlatJsonTest, RoundTripsWhatJsonWriterEmits) {
  JsonWriter w;
  w.add("experiment", "fig7");
  w.add("status", 0);
  w.add("wall_seconds", 0.125);
  w.add("ok", true);
  w.add("off", false);
  w.add("walls", std::vector<double>{0.5, 1.25, 2.0});
  const auto parsed = FlatJson::parse(w.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_value("experiment"), "fig7");
  EXPECT_EQ(parsed->number("status"), 0.0);
  EXPECT_EQ(parsed->number("wall_seconds"), 0.125);
  EXPECT_EQ(parsed->number("ok"), 1.0);   // booleans land as 0/1
  EXPECT_EQ(parsed->number("off"), 0.0);
  ASSERT_EQ(parsed->arrays().count("walls"), 1u);
  EXPECT_EQ(parsed->arrays().at("walls"),
            (std::vector<double>{0.5, 1.25, 2.0}));
  EXPECT_FALSE(parsed->number("missing").has_value());
  EXPECT_FALSE(parsed->string_value("status").has_value());
}

TEST(FlatJsonTest, ParsesEscapesScientificNotationAndNull) {
  const auto parsed = FlatJson::parse(
      "{\"msg\": \"a\\\"b\\\\c\\nd\", \"tiny\": 1.5e-9, \"neg\": -2E3, "
      "\"gone\": null}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string_value("msg"), "a\"b\\c\nd");
  EXPECT_EQ(parsed->number("tiny"), 1.5e-9);
  EXPECT_EQ(parsed->number("neg"), -2000.0);
  // null parses as NaN: present but not a usable number.
  ASSERT_EQ(parsed->numbers().count("gone"), 1u);
  EXPECT_TRUE(std::isnan(parsed->numbers().at("gone")));
}

TEST(FlatJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(FlatJson::parse("").has_value());
  EXPECT_FALSE(FlatJson::parse("{").has_value());
  EXPECT_FALSE(FlatJson::parse("{\"k\": }").has_value());
  EXPECT_FALSE(FlatJson::parse("{\"k\": 1,}").has_value());
  EXPECT_FALSE(FlatJson::parse("{\"k\": 1} trailing").has_value());
  EXPECT_FALSE(FlatJson::parse("[1, 2]").has_value());
  // Nested objects are out of scope by design.
  EXPECT_FALSE(FlatJson::parse("{\"k\": {\"nested\": 1}}").has_value());
}

TEST(FlatJsonTest, LoadReadsFilesAndFailsCleanly) {
  const auto dir = testutil::test_temp_dir("bcn_flatjson_test");
  std::filesystem::remove_all(dir);
  JsonWriter w;
  w.add("v", 3.5);
  const auto path = dir / "artifact.json";
  ASSERT_TRUE(w.write_file(path));
  const auto loaded = FlatJson::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->number("v"), 3.5);
  EXPECT_FALSE(FlatJson::load(dir / "missing.json").has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bcn
