#include "repo/csv.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace capplan::repo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CsvTest, RoundTripSimpleTable) {
  CsvTable t;
  t.header = {"a", "b"};
  t.rows = {{"1", "x"}, {"2", "y"}};
  const std::string path = TempPath("simple.csv");
  ASSERT_TRUE(WriteCsv(path, t).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->header, t.header);
  EXPECT_EQ(back->rows, t.rows);
}

TEST(CsvTest, QuotedFieldsRoundTrip) {
  CsvTable t;
  t.header = {"name", "value"};
  t.rows = {{"has,comma", "has\"quote"}, {"plain", "also plain"}};
  const std::string path = TempPath("quoted.csv");
  ASSERT_TRUE(WriteCsv(path, t).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows[0][0], "has,comma");
  EXPECT_EQ(back->rows[0][1], "has\"quote");
}

TEST(CsvTest, EncodedRecordsWriteWhatWriteCsvWrites) {
  CsvTable t;
  t.header = {"name", "value"};
  t.rows = {{"has,comma", "has\"quote"}, {"plain", "also plain"}};
  const std::string table_path = TempPath("table.csv");
  ASSERT_TRUE(WriteCsv(table_path, t).ok());
  std::string header, rows;
  AppendCsvRecord(&header, t.header);
  for (const auto& row : t.rows) AppendCsvRecord(&rows, row);
  EXPECT_EQ(rows, "\"has,comma\",\"has\"\"quote\"\nplain,also plain\n");
  const std::string records_path = TempPath("records.csv");
  ASSERT_TRUE(WriteCsvRecords(records_path, {header, rows}).ok());
  auto table = ReadCsv(table_path);
  auto records = ReadCsv(records_path);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->header, table->header);
  EXPECT_EQ(records->rows, table->rows);
}

TEST(CsvTest, ScanStopsAtTheFirstRowError) {
  CsvTable t;
  t.header = {"a"};
  t.rows = {{"1"}, {"bad"}, {"3"}};
  const std::string path = TempPath("scan.csv");
  ASSERT_TRUE(WriteCsv(path, t).ok());
  std::vector<std::string> header;
  std::vector<std::string> seen;
  const Status st =
      ScanCsv(path, &header, [&](std::vector<std::string>&& row) {
        seen.push_back(row[0]);
        return row[0] == "bad" ? Status::IoError("bad row") : Status::OK();
      });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(header, t.header);
  EXPECT_EQ(seen, (std::vector<std::string>{"1", "bad"}));
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path/file.csv").ok());
}

TEST(CsvTest, WriteToBadPathFails) {
  CsvTable t;
  t.header = {"a"};
  EXPECT_FALSE(WriteCsv("/nonexistent/dir/file.csv", t).ok());
}

TEST(SeriesCsvTest, RoundTripPreservesEverything) {
  tsa::TimeSeries ts("cdbm011/cpu", 1559520000, tsa::Frequency::kHourly,
                     {1.5, 2.25, std::nan(""), 4.0});
  const std::string path = TempPath("series.csv");
  ASSERT_TRUE(WriteSeriesCsv(path, ts).ok());
  auto back = ReadSeriesCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "cdbm011/cpu");
  EXPECT_EQ(back->start_epoch(), 1559520000);
  EXPECT_EQ(back->frequency(), tsa::Frequency::kHourly);
  ASSERT_EQ(back->size(), 4u);
  EXPECT_DOUBLE_EQ((*back)[0], 1.5);
  EXPECT_DOUBLE_EQ((*back)[1], 2.25);
  EXPECT_TRUE(std::isnan((*back)[2]));
  EXPECT_DOUBLE_EQ((*back)[3], 4.0);
}

TEST(SeriesCsvTest, FullPrecisionRoundTrip) {
  const double v = 52879.490000000001;
  tsa::TimeSeries ts("m", 0, tsa::Frequency::kDaily, {v});
  const std::string path = TempPath("precision.csv");
  ASSERT_TRUE(WriteSeriesCsv(path, ts).ok());
  auto back = ReadSeriesCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ((*back)[0], v);
}

TEST(SeriesCsvTest, NameWithCommaSurvives) {
  tsa::TimeSeries ts("weird,name", 10, tsa::Frequency::kWeekly, {1.0});
  const std::string path = TempPath("comma_name.csv");
  ASSERT_TRUE(WriteSeriesCsv(path, ts).ok());
  auto back = ReadSeriesCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "weird,name");
}

TEST(SeriesCsvTest, ReadRejectsGarbage) {
  const std::string path = TempPath("garbage.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not,a,series\n1,2,3\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadSeriesCsv(path).ok());
}

}  // namespace
}  // namespace capplan::repo
