#include "common/csv.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "temp_dir.h"

namespace bcn {
namespace {

TEST(CsvWriterTest, HeaderOnly) {
  CsvWriter w({"a", "b"});
  EXPECT_EQ(w.to_string(), "a,b\n");
  EXPECT_EQ(w.row_count(), 0u);
  EXPECT_EQ(w.column_count(), 2u);
}

TEST(CsvWriterTest, NumericRows) {
  CsvWriter w({"t", "q"});
  w.add_row({1.5, 2.25});
  w.add_row({-0.5, 1e10});
  EXPECT_EQ(w.to_string(), "t,q\n1.5,2.25\n-0.5,1e+10\n");
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter w({"name", "value"});
  w.add_row({std::string("has,comma"), std::string("has\"quote")});
  EXPECT_EQ(w.to_string(), "name,value\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(CsvWriterTest, FormatRoundTrips) {
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(CsvWriter::format(v)), v);
  EXPECT_EQ(std::stod(CsvWriter::format(1e300)), 1e300);
}

TEST(CsvParseTest, RoundTripsWriterOutput) {
  CsvWriter w({"t", "name", "v"});
  w.add_row({std::string("1.5"), std::string("plain"), std::string("2")});
  w.add_row({std::string("2.5"), std::string("has,comma"), std::string("3")});
  w.add_row({std::string("3.5"), std::string("has\"quote"), std::string("4")});
  const CsvTable table = parse_csv(w.to_string());
  ASSERT_EQ(table.header, (std::vector<std::string>{"t", "name", "v"}));
  ASSERT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.rows[1][1], "has,comma");
  EXPECT_EQ(table.rows[2][1], "has\"quote");
  EXPECT_DOUBLE_EQ(table.value(0, table.column("t")), 1.5);
  EXPECT_DOUBLE_EQ(table.value(2, table.column("v")), 4.0);
}

TEST(CsvParseTest, QuotedNewlineInsideCell) {
  const CsvTable t = parse_csv("a,b\n\"line1\nline2\",7\n");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][0], "line1\nline2");
  EXPECT_DOUBLE_EQ(t.value(0, 1), 7.0);
}

TEST(CsvParseTest, MissingTrailingNewlineAndCrLf) {
  const CsvTable t = parse_csv("x,y\r\n1,2\r\n3,4");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.value(1, 1), 4.0);
}

TEST(CsvParseTest, ColumnLookupAndFallbacks) {
  const CsvTable t = parse_csv("a,b\n1,not_a_number\n");
  EXPECT_EQ(t.column("a"), 0);
  EXPECT_EQ(t.column("missing"), -1);
  EXPECT_DOUBLE_EQ(t.value(0, t.column("b"), -9.0), -9.0);
  EXPECT_DOUBLE_EQ(t.value(5, 0, -9.0), -9.0);   // row out of range
  EXPECT_DOUBLE_EQ(t.value(0, -1, -9.0), -9.0);  // bad column
}

TEST(CsvParseTest, EmptyInput) {
  const CsvTable t = parse_csv("");
  EXPECT_TRUE(t.header.empty());
  EXPECT_TRUE(t.rows.empty());
}

TEST(CsvParseTest, ReadCsvFileRoundTrip) {
  const auto dir = testutil::test_temp_dir("bcn_csv_rt");
  std::filesystem::remove_all(dir);
  const auto path = dir / "t.csv";
  CsvWriter w({"x"});
  w.add_row({42.5});
  ASSERT_TRUE(w.write_file(path));
  const auto table = read_csv_file(path);
  ASSERT_TRUE(table);
  EXPECT_DOUBLE_EQ(table->value(0, 0), 42.5);
  EXPECT_FALSE(read_csv_file(dir / "nope.csv"));
  std::filesystem::remove_all(dir);
}

TEST(CsvWriterTest, WritesFileCreatingDirectories) {
  const auto dir = testutil::test_temp_dir("bcn_csv_test");
  std::filesystem::remove_all(dir);
  const auto path = dir / "nested" / "out.csv";
  CsvWriter w({"x"});
  w.add_row({42.0});
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(all, "x\n42\n");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bcn
