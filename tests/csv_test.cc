#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace lte::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(CsvTest, RoundTrip) {
  Table t({"x", "y"});
  ASSERT_TRUE(t.AppendRow({1.5, -2.0}).ok());
  ASSERT_TRUE(t.AppendRow({3.25, 4.0}).ok());
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());

  Table loaded;
  ASSERT_TRUE(ReadCsv(path, &loaded).ok());
  EXPECT_EQ(loaded.num_rows(), 2);
  EXPECT_EQ(loaded.AttributeNames(), (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(loaded.column(0).value(0), 1.5);
  EXPECT_DOUBLE_EQ(loaded.column(1).value(1), 4.0);
}

// Rows appended to a live table sit in sealed segments past the base
// column; the writer must read them through the segment-spanning views.
TEST_F(CsvTest, LiveTableRoundTripIncludesAppendedRows) {
  Table t({"v"});
  ASSERT_TRUE(t.AppendRow({1.0}).ok());
  ASSERT_TRUE(t.AppendRow({2.0}).ok());
  ASSERT_TRUE(t.AppendRows({{3.0}, {4.0}, {5.0}}).ok());
  const std::string path = TempPath("live.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());

  Table loaded;
  ASSERT_TRUE(ReadCsv(path, &loaded).ok());
  ASSERT_EQ(loaded.num_rows(), 5);
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(loaded.column(0).value(r), static_cast<double>(r + 1));
  }
}

// Values without a short decimal form come back bit for bit.
TEST_F(CsvTest, RoundTripIsExact) {
  const std::vector<double> values = {0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300,
                                      123456789.123456789};
  Table t({"v"});
  for (const double v : values) ASSERT_TRUE(t.AppendRow({v}).ok());
  const std::string path = TempPath("exact.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());

  Table loaded;
  ASSERT_TRUE(ReadCsv(path, &loaded).ok());
  ASSERT_EQ(loaded.num_rows(), static_cast<int64_t>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(loaded.column(0).value(static_cast<int64_t>(i)), values[i]);
  }
}

// /dev/full accepts the open and fails every write with ENOSPC; a small
// table sits wholly in the stream's buffer until the final flush, which is
// the write that must be checked.
TEST_F(CsvTest, WriteToFullDeviceIsIoError) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  Table t({"x", "y"});
  for (int r = 0; r < 5; ++r) ASSERT_TRUE(t.AppendRow({1.0 * r, 2.0}).ok());
  EXPECT_EQ(WriteCsv(t, "/dev/full").code(), StatusCode::kIoError);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  Table t;
  const Status s = ReadCsv(TempPath("does_not_exist.csv"), &t);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST_F(CsvTest, EmptyFileFails) {
  const std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  Table t;
  EXPECT_EQ(ReadCsv(path, &t).code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, NonNumericCellFails) {
  const std::string path = TempPath("nonnum.csv");
  WriteFile(path, "a,b\n1,hello\n");
  Table t;
  const Status s = ReadCsv(path, &t);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("hello"), std::string::npos);
}

TEST_F(CsvTest, RowWidthMismatchFails) {
  const std::string path = TempPath("ragged.csv");
  WriteFile(path, "a,b\n1,2\n3\n");
  Table t;
  EXPECT_EQ(ReadCsv(path, &t).code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, SkipsBlankLinesAndCarriageReturns) {
  const std::string path = TempPath("crlf.csv");
  WriteFile(path, "a,b\r\n1,2\r\n\r\n3,4\r\n");
  Table t;
  ASSERT_TRUE(ReadCsv(path, &t).ok());
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_DOUBLE_EQ(t.column(1).value(1), 4.0);
}

TEST_F(CsvTest, ScientificNotationParses) {
  const std::string path = TempPath("sci.csv");
  WriteFile(path, "a\n1e-3\n-2.5E2\n");
  Table t;
  ASSERT_TRUE(ReadCsv(path, &t).ok());
  EXPECT_DOUBLE_EQ(t.column(0).value(0), 1e-3);
  EXPECT_DOUBLE_EQ(t.column(0).value(1), -250.0);
}

TEST_F(CsvTest, OverflowingMagnitudeFails) {
  // strtod turns 1e999 into +inf with ERANGE; loading it would poison every
  // downstream distance computation, so it must be rejected, naming the cell
  // and the line it sits on.
  const std::string path = TempPath("overflow.csv");
  WriteFile(path, "a,b\n1,2\n1e999,4\n");
  Table t;
  const Status s = ReadCsv(path, &t);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("1e999"), std::string::npos);
  EXPECT_NE(s.message().find("line 3"), std::string::npos);
}

TEST_F(CsvTest, NegativeOverflowFails) {
  const std::string path = TempPath("neg_overflow.csv");
  WriteFile(path, "a\n-1e400\n");
  Table t;
  EXPECT_EQ(ReadCsv(path, &t).code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, NanAndInfSpellingsFail) {
  // strtod happily parses these spellings; the reader must not.
  for (const std::string cell : {"nan", "NaN", "inf", "-inf", "Infinity"}) {
    const std::string path = TempPath("nonfinite.csv");
    WriteFile(path, "a\n" + cell + "\n");
    Table t;
    const Status s = ReadCsv(path, &t);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << cell;
    EXPECT_NE(s.message().find(cell), std::string::npos) << cell;
  }
}

TEST_F(CsvTest, DenormalUnderflowStillParses) {
  // Underflow also sets ERANGE, but the denormal result is a valid finite
  // double — it must load, unlike true overflow.
  const std::string path = TempPath("denormal.csv");
  WriteFile(path, "a\n1e-320\n");
  Table t;
  ASSERT_TRUE(ReadCsv(path, &t).ok());
  EXPECT_GT(t.column(0).value(0), 0.0);
  EXPECT_LT(t.column(0).value(0), 1e-300);
}

TEST_F(CsvTest, QuotedFieldFailsLoudly) {
  // Quoting is unsupported: splitting '"1,2"' on commas would silently
  // produce two mangled cells, so the quote itself is the error.
  const std::string path = TempPath("quoted.csv");
  WriteFile(path, "a,b\n\"1,2\",3\n");
  Table t;
  const Status s = ReadCsv(path, &t);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
  EXPECT_NE(s.message().find("quot"), std::string::npos);
}

TEST_F(CsvTest, QuotedHeaderFailsLoudly) {
  const std::string path = TempPath("quoted_header.csv");
  WriteFile(path, "\"a\",b\n1,2\n");
  Table t;
  const Status s = ReadCsv(path, &t);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace lte::data
