#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace spothost::trace {
namespace {

PriceTrace make_trace() {
  PriceTrace t;
  t.append(0, 0.061);
  t.append(120000, 0.125);
  t.append(240000, 0.0375);
  t.set_end(500000);
  return t;
}

TEST(Csv, RoundTripPreservesEverything) {
  const auto original = make_trace();
  std::stringstream ss;
  save_csv(original, ss);
  const auto loaded = load_csv(ss);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.end(), original.end());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.points()[i].time, original.points()[i].time);
    EXPECT_DOUBLE_EQ(loaded.points()[i].price, original.points()[i].price);
  }
}

TEST(Csv, OutputFormatIsStable) {
  PriceTrace t;
  t.append(0, 0.5);
  t.set_end(1000);
  std::stringstream ss;
  save_csv(t, ss);
  EXPECT_EQ(ss.str(), "time_ms,price_per_hour\n0,0.5\nend,1000\n");
}

TEST(Csv, RejectsMissingHeader) {
  std::stringstream ss("0,0.5\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsEmptyInput) {
  std::stringstream ss("");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsMissingComma) {
  std::stringstream ss("time_ms,price_per_hour\n1234\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsBadTimestamp) {
  std::stringstream ss("time_ms,price_per_hour\nabc,0.5\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsBadPrice) {
  std::stringstream ss("time_ms,price_per_hour\n0,zebra\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsTrailingJunkInPrice) {
  std::stringstream ss("time_ms,price_per_hour\n0,0.5x\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsNonPositivePrice) {
  std::stringstream ss("time_ms,price_per_hour\n0,-0.5\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsOutOfOrderRows) {
  std::stringstream ss("time_ms,price_per_hour\n100,0.5\n50,0.6\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsDataAfterEndMarker) {
  std::stringstream ss("time_ms,price_per_hour\n0,0.5\nend,100\n200,0.6\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, RejectsNoDataRows) {
  std::stringstream ss("time_ms,price_per_hour\n");
  EXPECT_THROW(load_csv(ss), std::runtime_error);
}

TEST(Csv, SkipsBlankLines) {
  std::stringstream ss("time_ms,price_per_hour\n0,0.5\n\n100,0.6\nend,200\n");
  const auto t = load_csv(ss);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Csv, ErrorMessagesCarryLineNumbers) {
  std::stringstream ss("time_ms,price_per_hour\n0,0.5\nbroken\n");
  try {
    load_csv(ss);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Csv, CrlfFileParsesLikeLfFile) {
  const std::string lf = "time_ms,price_per_hour\n0,0.5\n\n100,0.6\nend,200\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::stringstream lf_in(lf);
  std::stringstream crlf_in(crlf);
  const auto want = load_csv(lf_in);
  const auto got = load_csv(crlf_in);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.end(), want.end());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.points()[i].time, want.points()[i].time);
    EXPECT_EQ(got.points()[i].price, want.points()[i].price);
  }
  // Only one '\r' is line ending; a second is still junk in the price.
  std::stringstream doubled("time_ms,price_per_hour\r\n0,0.5\r\r\n");
  EXPECT_THROW(load_csv(doubled), std::runtime_error);
}

TEST(Csv, EndBeforeLastPointNamesItsLine) {
  std::stringstream ss("time_ms,price_per_hour\n0,0.5\n100,0.6\nend,50\n");
  try {
    load_csv(ss);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("end before last point"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, PriceGrammarMatchesTheFeed) {
  // The price column takes what FileTailFeed takes: one number spanning the
  // field, positive and finite.
  struct Case {
    const char* field;
    bool accepted;
    double price;
  };
  const Case cases[] = {
      {"0.05", true, 0.05},
      {"1", true, 1.0},
      {"2.5e-1", true, 0.25},
      {"2.5E-1", true, 0.25},
      {".5", true, 0.5},
      {"5.", true, 5.0},
      {" 0.05", false, 0.0},
      {"\t0.05", false, 0.0},
      {"+0.05", false, 0.0},
      {"0x1p-4", false, 0.0},
      {"0.05 ", false, 0.0},
      {"0.05abc", false, 0.0},
      {"", false, 0.0},
      {"inf", false, 0.0},
      {"nan", false, 0.0},
      {"1e400", false, 0.0},
      {"0", false, 0.0},
      {"-0.05", false, 0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    std::stringstream ss(std::string("time_ms,price_per_hour\n0,") + c.field + "\n");
    if (!c.accepted) {
      EXPECT_THROW(load_csv(ss), std::runtime_error);
      continue;
    }
    const auto t = load_csv(ss);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.points()[0].price, c.price);
  }
}

TEST(Csv, TimeGrammarMatchesTheFeed) {
  // The time and end columns take what FileTailFeed takes: ASCII digits
  // only. Integer from_chars alone would also take a leading '-'.
  struct Case {
    const char* rows;
    bool accepted;
  };
  const Case cases[] = {
      {"0,0.5\n", true},
      {"5,0.5\nend,10\n", true},
      {"-5,0.5\n", false},
      {"-0,0.5\n", false},
      {"0,0.5\nend,-0\n", false},
      {"+5,0.5\n", false},
      {" 5,0.5\n", false},
      {"0,0.5\nend,+10\n", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rows);
    std::stringstream ss(std::string("time_ms,price_per_hour\n") + c.rows);
    if (c.accepted) {
      EXPECT_NO_THROW((void)load_csv(ss));
    } else {
      EXPECT_THROW((void)load_csv(ss), std::runtime_error);
    }
  }
}

TEST(Csv, FileRoundTrip) {
  const auto original = make_trace();
  const std::string path = ::testing::TempDir() + "/spothost_trace_test.csv";
  save_csv_file(original, path);
  const auto loaded = load_csv_file(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.end(), original.end());
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(load_csv_file("/nonexistent/nowhere.csv"), std::runtime_error);
}

}  // namespace
}  // namespace spothost::trace
