#include "table/csv.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "table/csv_scan.h"
#include "table/csv_stream.h"

#include <gtest/gtest.h>

namespace scoded::csv {
namespace {

TEST(CsvReadTest, BasicTypesInferred) {
  Table t = ReadString("name,age\nalice,30\nbob,25\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.schema().field(1).type, ColumnType::kNumeric);
  EXPECT_DOUBLE_EQ(t.ColumnByName("age").NumericAt(0), 30.0);
  EXPECT_EQ(t.ColumnByName("name").CategoryAt(1), "bob");
}

TEST(CsvReadTest, EmptyCellsBecomeNulls) {
  Table t = ReadString("a,b\n1,x\n,y\n3,\n").value();
  EXPECT_TRUE(t.ColumnByName("a").IsNull(1));
  EXPECT_TRUE(t.ColumnByName("b").IsNull(2));
  EXPECT_EQ(t.ColumnByName("a").NullCount(), 1u);
}

TEST(CsvReadTest, MixedColumnFallsBackToCategorical) {
  Table t = ReadString("v\n1\ntwo\n3\n").value();
  EXPECT_EQ(t.schema().field(0).type, ColumnType::kCategorical);
  EXPECT_EQ(t.column(0).CategoryAt(1), "two");
}

TEST(CsvReadTest, NoHeaderGeneratesColumnNames) {
  ReadOptions options;
  options.has_header = false;
  Table t = ReadString("1,2\n3,4\n", options).value();
  EXPECT_EQ(t.schema().field(0).name, "c0");
  EXPECT_EQ(t.schema().field(1).name, "c1");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(CsvReadTest, QuotedFieldsWithDelimitersAndEscapes) {
  Table t = ReadString("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n").value();
  EXPECT_EQ(t.column(0).CategoryAt(0), "x,y");
  EXPECT_EQ(t.column(1).CategoryAt(0), "say \"hi\"");
}

TEST(CsvReadTest, CrLfLineEndings) {
  Table t = ReadString("a\r\n1\r\n2\r\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_DOUBLE_EQ(t.column(0).NumericAt(1), 2.0);
}

TEST(CsvReadTest, RaggedRowIsError) {
  Result<Table> r = ReadString("a,b\n1\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadString("").ok());
}

TEST(CsvReadTest, CustomDelimiter) {
  ReadOptions options;
  options.delimiter = ';';
  Table t = ReadString("a;b\n1;2\n", options).value();
  EXPECT_EQ(t.NumColumns(), 2u);
  EXPECT_DOUBLE_EQ(t.column(1).NumericAt(0), 2.0);
}

TEST(CsvWriteTest, RoundTrip) {
  Table t = ReadString("name,score\nann,1.5\n\"b,c\",2\n").value();
  std::string text = WriteString(t);
  Table back = ReadString(text).value();
  EXPECT_EQ(back.NumRows(), t.NumRows());
  EXPECT_EQ(back.ColumnByName("name").CategoryAt(1), "b,c");
  EXPECT_DOUBLE_EQ(back.ColumnByName("score").NumericAt(0), 1.5);
}

TEST(CsvWriteTest, NullsRenderEmpty) {
  Table t = ReadString("a,b\n1,x\n,y\n2,z\n").value();
  std::string text = WriteString(t);
  EXPECT_EQ(text, "a,b\n1,x\n,y\n2,z\n");
}

TEST(CsvReadTest, BlankLinesAreSkipped) {
  Table t = ReadString("a\n1\n\n2\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(CsvFileTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/scoded_csv_test.csv";
  Table t = ReadString("x,y\n1,a\n2,b\n").value();
  ASSERT_TRUE(WriteFile(t, path).ok());
  Table back = ReadFile(path).value();
  EXPECT_EQ(back.NumRows(), 2u);
  EXPECT_EQ(back.ColumnByName("y").CategoryAt(1), "b");
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  Result<Table> r = ReadFile("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvReadTest, QuotedNewlinesStayInsideField) {
  // A raw newline inside a quoted field is field content, not a record
  // terminator; the naive line-splitting reader used to break here.
  Table t = ReadString("a,b\n\"line1\nline2\",x\n1,y\n").value();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.column(0).CategoryAt(0), "line1\nline2");
  EXPECT_EQ(t.column(1).CategoryAt(1), "y");
}

TEST(CsvReadTest, QuotedCrLfStaysInsideField) {
  Table t = ReadString("a\r\n\"x\r\ny\"\r\n").value();
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.column(0).CategoryAt(0), "x\r\ny");
}

TEST(CsvReadTest, WhitespacePreservedInsideQuotes) {
  // Unquoted fields are trimmed; quoted content is verbatim.
  Table t = ReadString("a,b\n  plain  ,\"  padded  \"\n").value();
  EXPECT_EQ(t.column(0).CategoryAt(0), "plain");
  EXPECT_EQ(t.column(1).CategoryAt(0), "  padded  ");
}

TEST(CsvReadTest, UnterminatedQuoteIsError) {
  Result<Table> r = ReadString("a\n\"oops\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, OpenQuoteOutranksRaggedRow) {
  // Input that ends inside quotes reports the open quote even when an
  // earlier row is ragged: the quote is what threw the field count off.
  Result<Table> open = ReadString("x,y\n1,a\n2\n3,c\n\"open\n");
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().message(), "CSV input ends inside a quoted field");
  Result<Table> ragged = ReadString("x,y\n1,a\n2\n3,c\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().message(), "CSV row 3 has 1 fields, expected 2");
}

TEST(CsvWriteTest, RoundTripPreservesNewlinesQuotesAndPadding) {
  const std::vector<std::string> nasty = {
      "plain",       "comma,inside", "quote\"inside", "newline\ninside",
      "crlf\r\nin",  "  padded  ",   "\ttabbed\t",    "both\",\nof them",
      "trailing\n",  "\"quoted\"",   "a,\"b\",c",     "ends with space ",
  };
  TableBuilder builder;
  builder.AddCategorical("v", nasty);
  Table t = std::move(builder).Build().value();
  std::string text = WriteString(t);
  Table back = ReadString(text).value();
  ASSERT_EQ(back.NumRows(), nasty.size());
  for (size_t i = 0; i < nasty.size(); ++i) {
    EXPECT_EQ(back.column(0).CategoryAt(i), nasty[i]) << "row " << i;
  }
  // Fixpoint: a second write of the re-read table is byte-identical.
  EXPECT_EQ(WriteString(back), text);
}

TEST(CsvWriteTest, HeaderNamesSurviveRoundTrip) {
  TableBuilder builder;
  builder.AddNumeric("with,comma", {1.0});
  builder.AddNumeric(" padded name ", {2.0});
  builder.AddNumeric("multi\nline", {3.0});
  Table t = std::move(builder).Build().value();
  Table back = ReadString(WriteString(t)).value();
  EXPECT_EQ(back.schema().field(0).name, "with,comma");
  EXPECT_EQ(back.schema().field(1).name, " padded name ");
  EXPECT_EQ(back.schema().field(2).name, "multi\nline");
  EXPECT_DOUBLE_EQ(back.ColumnByName(" padded name ").NumericAt(0), 2.0);
}

TEST(CsvWriteTest, RandomizedRoundTripProperty) {
  // Deterministic pseudo-random strings over a hostile alphabet; every
  // WriteString -> ReadString round trip must reproduce the table exactly.
  const std::string alphabet = "ab,\"\n\r \t;x";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::string> col_a;
  std::vector<std::string> col_b;
  for (int r = 0; r < 60; ++r) {
    std::string a;
    std::string b;
    size_t len_a = next() % 8;
    size_t len_b = 1 + next() % 6;  // non-empty so no nulls complicate equality
    for (size_t i = 0; i < len_a; ++i) {
      a.push_back(alphabet[next() % alphabet.size()]);
    }
    for (size_t i = 0; i < len_b; ++i) {
      b.push_back(alphabet[next() % alphabet.size()]);
    }
    // An empty or all-whitespace unquoted value reads back as null, which
    // is by design; normalise those to a sentinel for exact comparison.
    if (a.empty()) {
      a.push_back('x');
    }
    col_a.push_back(a);
    col_b.push_back(b);
  }
  TableBuilder builder;
  builder.AddCategorical("a", col_a);
  builder.AddCategorical("b", col_b);
  Table t = std::move(builder).Build().value();
  std::string text = WriteString(t);
  Table back = ReadString(text).value();
  ASSERT_EQ(back.NumRows(), t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (t.column(0).IsNull(r)) {
      EXPECT_TRUE(back.column(0).IsNull(r));
    } else {
      EXPECT_EQ(back.column(0).CategoryAt(r), t.column(0).CategoryAt(r)) << "row " << r;
    }
    if (t.column(1).IsNull(r)) {
      EXPECT_TRUE(back.column(1).IsNull(r));
    } else {
      EXPECT_EQ(back.column(1).CategoryAt(r), t.column(1).CategoryAt(r)) << "row " << r;
    }
  }
  EXPECT_EQ(WriteString(back), text);
}

TEST(CsvWriteTest, FieldsAreValueToStringQuotedWhereNeeded) {
  // Numbers at every edge of the integer and %g renderings, NaN kept as a
  // value, nulls, and categories that need quoting, written with delimiters
  // that also occur inside numbers.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> numbers = {
      0.0,      -0.0,      1e15 - 1, -(1e15 - 1), 1e15, -1e15,  0.1, 1e-05,
      123456.5, 1234567.0, inf,      -inf,        nan,  -nan,   2.5, 0.0};
  std::vector<bool> valid(numbers.size(), true);
  valid.back() = false;
  const std::vector<std::string> dictionary = {"plain", "with,comma", "say \"hi\"", " padded",
                                               "line\nbreak", "cr\r", "1.5", "a-b", ""};
  std::vector<int32_t> codes;
  for (size_t r = 0; r < numbers.size(); ++r) {
    codes.push_back(r % 4 == 3 ? -1 : static_cast<int32_t>(r % dictionary.size()));
  }
  TableBuilder builder;
  builder.AddNumericWithNulls("x", numbers, valid);
  builder.AddNumeric("y", {1.5, 0.0, 7.0, -2.0, nan, 1e20, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0,
                           10.0, 11.0, 12.0});
  builder.AddColumn("c", Column::CategoricalFromCodes(codes, dictionary));
  builder.AddColumn("all null", Column::CategoricalFromCodes(
                                    std::vector<int32_t>(numbers.size(), -1), {}));
  Table table = std::move(builder).Build().value();
  auto quoted = [](const std::string& value, char delimiter) {
    bool needs = !value.empty() && (std::isspace(static_cast<unsigned char>(value.front())) ||
                                    std::isspace(static_cast<unsigned char>(value.back())) ||
                                    value.find_first_of(std::string("\"\n\r") + delimiter) !=
                                        std::string::npos);
    if (!needs) {
      return value;
    }
    std::string out = "\"";
    for (char c : value) {
      out += c == '"' ? std::string("\"\"") : std::string(1, c);
    }
    return out + "\"";
  };
  for (char delimiter : {',', ';', '.', '-'}) {
    std::string want;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      want += c > 0 ? std::string(1, delimiter) : std::string();
      want += quoted(table.schema().field(c).name, delimiter);
    }
    want += '\n';
    for (size_t r = 0; r < table.NumRows(); ++r) {
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        want += c > 0 ? std::string(1, delimiter) : std::string();
        want += quoted(table.column(c).ValueToString(r), delimiter);
      }
      want += '\n';
    }
    EXPECT_EQ(WriteString(table, delimiter), want) << "delimiter " << delimiter;
  }
}

// ---------------------------------------------------------------------------
// ShardReader change detection: the reader's two passes verify, rather than
// trust, that the file stayed put in between.

namespace {

void WriteRows(const std::string& path, int rows, const char* tag) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good());
  out << "name,score\n";
  for (int i = 0; i < rows; ++i) {
    out << tag << i % 7 << ',' << i * 3 << '\n';
  }
}

// Drains the reader and returns the terminal status (OK when the file
// streamed to a clean end-of-input).
Status Drain(ShardReader& reader) {
  for (int guard = 0; guard < 1000; ++guard) {
    Result<std::optional<Table>> shard = reader.Next();
    if (!shard.ok()) {
      return shard.status();
    }
    if (!shard->has_value()) {
      return OkStatus();
    }
  }
  return InternalError("reader never terminated");
}

}  // namespace

TEST(ShardReaderChangeDetectionTest, UnchangedFileStreamsCleanly) {
  std::string path = ::testing::TempDir() + "/shard_reader_stable.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;  // small chunks: pass 2 reads the disk lazily
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_TRUE(Drain(*reader).ok());
  std::remove(path.c_str());
}

TEST(ShardReaderChangeDetectionTest, TruncationBetweenPassesIsDataLoss) {
  std::string path = ::testing::TempDir() + "/shard_reader_truncated.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  WriteRows(path, 10, "row");  // rewritten shorter after the first pass
  Status status = Drain(*reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("changed between passes"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(ShardReaderChangeDetectionTest, AppendBetweenPassesIsDataLoss) {
  std::string path = ::testing::TempDir() + "/shard_reader_appended.csv";
  WriteRows(path, 50, "row");
  ShardReaderOptions options;
  options.shard_rows = 8;
  options.buffer_bytes = 64;
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  {
    std::ofstream out(path, std::ios::app);
    ASSERT_TRUE(out.good());
    for (int i = 0; i < 20; ++i) {
      out << "extra" << i % 5 << ',' << i << '\n';
    }
  }
  Status status = Drain(*reader);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("changed between passes"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Read errors: a file that opens but cannot be read (here a directory, where
// read() fails with EISDIR) is an error naming the path and the OS reason,
// not an empty or truncated input.

TEST(CsvFileTest, ReadErrorIsNotEndOfInput) {
  std::string dir = ::testing::TempDir() + "/scoded_csv_dir_input";
  ::mkdir(dir.c_str(), 0700);
  Result<Table> table = ReadFile(dir);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataLoss) << table.status().ToString();
  EXPECT_NE(table.status().message().find("'" + dir + "'"), std::string::npos)
      << table.status().message();
  EXPECT_NE(table.status().message().find(ErrnoMessage(EISDIR)), std::string::npos)
      << table.status().message();

  Result<ShardReader> reader = ShardReader::Open(dir);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss) << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("'" + dir + "'"), std::string::npos)
      << reader.status().message();
  EXPECT_NE(reader.status().message().find(ErrnoMessage(EISDIR)), std::string::npos)
      << reader.status().message();
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Chunk invariance: the shard reader scans the file in buffer_bytes reads,
// carrying quote and '\r' state and unfinished records across every read
// boundary. Wherever those boundaries fall, and however the rows are cut
// into shards, the concatenated shards must be exactly the table
// ReadString builds from the whole text, or both must fail alike.

namespace {

uint64_t NextRandom(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Hand-written inputs, one per feature the scanner has to carry across a
// read boundary, plus well-formed CSV over the hostile alphabet of
// RandomizedRoundTripProperty.
std::vector<std::string> ChunkInvarianceCorpus() {
  std::vector<std::string> corpus = {
      "name,score\r\nann,1.5\r\nbob,2\r\n",                 // CRLF
      "a,b\rc\n1,x\ry\n2,z\n",                              // lone CR is content
      "a\r\n1\r",                                           // CR at end of input
      "v\n\"say \"\"hi\"\"\"\n\"\"\"\"\n\"\"\n",            // "" escapes
      "a,b\n\"line1\nline2\",x\n\"x\r\ny\",\"\r\"\n",       // quoted newlines
      "a\n\n1\n\r\n\n2\n\n",                                // blank lines
      "a,b\n  plain  ,\"  padded  \"\n\t7\t, \" q \" x\n",  // padded fields
      "x,y\n1,a\n2,b",                                      // last record without newline
      "x,y\n1,a\n2\n3,c\n",                                 // ragged row
      "x,y\n1,a,extra\n",                                   // ragged row, too many
      "x\n1\n\"open\n2\n",                                  // unterminated quote
      "x,y\n1,a\n2\n\"open\n",                              // ragged row, then open quote
      "",                                                   // empty input
      "\n\r\n\n",                                           // only blank lines
      "h\n",                                                // header only
      "n,m\n1,\n,2\n+5,0x10\n1e400,-0\n.5,5.\n nan ,inf\n",  // numeric spellings and nulls
      "n\n1\n2\nthree\n4\n",                                // numeric column turns categorical
      "n\n\n\nword\n1\n",                                   // nulls, then categorical
      "n\n\"1\".5\n\" 2 \"\n3\n",                           // quoted numbers
      "q\nab\"cd\"ef\n\"a\"\rb\n\"a\"\r\r\n",               // text around quotes, CR after a quote
  };
  const std::string alphabet = "ab,\"\n\r \t;x";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int table = 0; table < 6; ++table) {
    std::vector<std::string> col_a;
    std::vector<std::string> col_b;
    std::vector<double> col_n;
    for (int r = 0; r < 12; ++r) {
      std::string a = "x";
      std::string b;
      for (size_t i = NextRandom(state) % 6; i > 0; --i) {
        a.push_back(alphabet[NextRandom(state) % alphabet.size()]);
      }
      for (size_t i = NextRandom(state) % 6; i > 0; --i) {
        b.push_back(alphabet[NextRandom(state) % alphabet.size()]);
      }
      col_a.push_back(a);
      col_b.push_back(b);
      col_n.push_back(static_cast<double>(NextRandom(state) % 100000) / 7.0);
    }
    TableBuilder builder;
    builder.AddCategorical("a", col_a);
    builder.AddCategorical("b", col_b);
    builder.AddNumeric("n", col_n);
    corpus.push_back(WriteString(std::move(builder).Build().value()));
  }
  // Seeded byte mutations of everything above.
  const std::string mutations = "\"\r\n, a1.";
  size_t base = corpus.size();
  for (size_t i = 0; i < 4 * base; ++i) {
    std::string text = corpus[i % base];
    for (uint64_t edits = 1 + NextRandom(state) % 3; edits > 0; --edits) {
      char byte = mutations[NextRandom(state) % mutations.size()];
      size_t at = text.empty() ? 0 : NextRandom(state) % text.size();
      switch (NextRandom(state) % 3) {
        case 0:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        case 1:
          if (!text.empty()) {
            text[at] = byte;
          }
          break;
        default:
          if (!text.empty()) {
            text.erase(at, 1);
          }
          break;
      }
    }
    corpus.push_back(text);
  }
  return corpus;
}

// Compares row `row` of `whole` with row `shard_row` of `shard`, column by
// column: bitwise numeric values (nulls read as NaN), null masks, and
// categories. A numeric column without nulls carries no validity mask and
// reports a "nan" cell as null, so whether such a cell is null depends on
// the other rows a shard holds; its bits must still match.
void ExpectSameRow(const Table& whole, size_t row, const Table& shard, size_t shard_row,
                   const std::string& context) {
  for (size_t c = 0; c < whole.NumColumns(); ++c) {
    const Column& expected = whole.column(c);
    const Column& actual = shard.column(c);
    std::string where = context + " row " + std::to_string(row) + " column " + std::to_string(c);
    if (expected.type() == ColumnType::kNumeric) {
      EXPECT_EQ(Bits(actual.NumericAt(shard_row)), Bits(expected.NumericAt(row))) << where;
      if (expected.IsNull(row)) {
        EXPECT_TRUE(actual.IsNull(shard_row)) << where;
      } else if (!std::isnan(expected.NumericAt(row))) {
        EXPECT_FALSE(actual.IsNull(shard_row)) << where;
      }
      continue;
    }
    ASSERT_EQ(actual.IsNull(shard_row), expected.IsNull(row)) << where;
    if (!expected.IsNull(row)) {
      EXPECT_EQ(actual.CategoryAt(shard_row), expected.CategoryAt(row)) << where;
    }
  }
}

// Everything a read yields, spelled out so that two reads compare with one
// EXPECT_EQ and a mismatch shows where: the error, or every column's name,
// type, null mask, value bits, codes and dictionary in order.
std::string Describe(const Result<Table>& read) {
  if (!read.ok()) {
    return "error " + read.status().ToString();
  }
  std::string out;
  for (size_t c = 0; c < read->NumColumns(); ++c) {
    const Column& column = read->column(c);
    out += "column " + read->schema().field(c).name + " " +
           std::string(ColumnTypeToString(column.type())) + "\n";
    for (size_t r = 0; r < column.size(); ++r) {
      out += column.IsNull(r) ? "null " : "";
      out += column.type() == ColumnType::kNumeric ? std::to_string(Bits(column.NumericAt(r)))
                                                    : std::to_string(column.CodeAt(r));
      out += "\n";
    }
    for (const std::string& category : column.type() == ColumnType::kCategorical
                                           ? column.dictionary()
                                           : std::vector<std::string>()) {
      out += "category [" + category + "]\n";
    }
  }
  return out;
}

struct ThreadsGuard {
  explicit ThreadsGuard(int n) { parallel::SetThreads(n); }
  ~ThreadsGuard() { parallel::SetThreads(0); }
};

// Reads `text` at every grain and thread count and expects what the
// one-chunk read gives; returns that.
std::string ExpectSameAtEveryGrain(const std::string& text, const ReadOptions& options,
                                   const std::string& context) {
  const size_t whole = std::max<size_t>(1, text.size());
  const std::string want = Describe(internal::ReadString(text, options, whole));
  for (int threads : {1, 4}) {
    ThreadsGuard guard(threads);
    for (size_t grain : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64}, whole}) {
      EXPECT_EQ(Describe(internal::ReadString(text, options, grain)), want)
          << context << " grain " << grain << " threads " << threads;
    }
  }
  return want;
}

}  // namespace

TEST(CsvChunkedReadTest, ChunkStartsFallJustPastUnquotedNewlines) {
  // Cut candidates at every byte: the quoted '\n' (byte 4) and the last '\n'
  // (end of input) are skipped, and a CRLF is cut after its '\n'.
  EXPECT_EQ(ChunkStarts("a\n\"b\nc\"\nd\n", ',', 1), (std::vector<size_t>{0, 2, 8}));
  EXPECT_EQ(ChunkStarts("a\r\nb\r\nc", ',', 1), (std::vector<size_t>{0, 3, 6}));
  EXPECT_EQ(ChunkStarts("a\r\nb\r\nc", '\r', 1), (std::vector<size_t>{0, 3, 6}));
  // A stretch whose newlines are all quoted adds no cut.
  EXPECT_EQ(ChunkStarts("x\n\"a\nb\nc\"\ny\n", ',', 4), (std::vector<size_t>{0, 10}));
  // A '\n' delimiter leaves no newline byte, so the input stays whole.
  EXPECT_EQ(ChunkStarts("a\nb\nc\n", '\n', 1), (std::vector<size_t>{0}));
  EXPECT_EQ(ChunkStarts("", ',', 1), (std::vector<size_t>{0}));
}

TEST(CsvChunkedReadTest, EveryGrainReadsTheOneChunkTable) {
  std::vector<std::string> corpus = ChunkInvarianceCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (bool has_header : {true, false}) {
      for (char delimiter : {',', ';', '"', '\n', '\r'}) {
        ReadOptions options;
        options.has_header = has_header;
        options.delimiter = delimiter;
        ExpectSameAtEveryGrain(corpus[i], options,
                               "input " + std::to_string(i) + " header " +
                                   std::to_string(has_header) + " delimiter " +
                                   std::to_string(static_cast<int>(delimiter)));
      }
    }
  }
}

TEST(CsvChunkedReadTest, ColumnTurnsCategoricalInALaterChunk) {
  std::string text = "n,m\n";
  for (int i = 0; i < 40; ++i) {
    text += std::to_string(i % 5) + ",1\n";
  }
  text += "word,2\n 3 ,3\n,4\n";
  std::string got = ExpectSameAtEveryGrain(text, {}, "late categorical");
  Table table = ReadString(text).value();
  ASSERT_EQ(table.column(0).type(), ColumnType::kCategorical) << got;
  EXPECT_EQ(table.column(0).dictionary(),
            (std::vector<std::string>{"0", "1", "2", "3", "4", "word"}));
  EXPECT_EQ(table.column(0).CodeAt(41), 3);
  EXPECT_TRUE(table.column(0).IsNull(42));
  EXPECT_EQ(table.column(1).type(), ColumnType::kNumeric);
}

TEST(CsvChunkedReadTest, DictionaryIsFirstAppearanceAcrossChunks) {
  std::string text = "c\n";
  for (const char* order : {"xyz", "zyxw", "wvx", "", "uv"}) {
    for (const char* c = order; *c != '\0'; ++c) {
      text += std::string(8, *c) + "\n\n";
    }
    text += "\n";  // blank lines between records are skipped
  }
  ExpectSameAtEveryGrain(text, {}, "dictionary order");
  Table table = ReadString(text).value();
  std::vector<std::string> want;
  for (char c : std::string("xyzwvu")) {
    want.push_back(std::string(8, c));
  }
  EXPECT_EQ(table.column(0).dictionary(), want);
}

TEST(CsvChunkedReadTest, AllNullChunkInANumericColumn) {
  std::string text = "n,m\n1.5,a\n";
  for (int i = 0; i < 30; ++i) {
    text += ",b\n";
  }
  text += "2,c\n";
  ExpectSameAtEveryGrain(text, {}, "all-null chunk");
  Table table = ReadString(text).value();
  ASSERT_EQ(table.column(0).type(), ColumnType::kNumeric);
  EXPECT_EQ(table.column(0).NullCount(), 30u);
  EXPECT_EQ(table.column(0).NumericAt(0), 1.5);
  EXPECT_EQ(table.column(0).NumericAt(31), 2.0);
}

TEST(CsvChunkedReadTest, LowestRaggedRowIsReported) {
  std::string text = "x,y\n";
  for (int i = 0; i < 20; ++i) {
    text += "1,a\n";
  }
  text += "2\n";  // record 21 after the header: CSV row 22
  for (int i = 0; i < 20; ++i) {
    text += "3,b\n\n";
  }
  text += "4,c,extra\n5,d\n";
  std::string got = ExpectSameAtEveryGrain(text, {}, "two ragged rows");
  EXPECT_NE(got.find("CSV row 22 has 1 fields, expected 2"), std::string::npos) << got;
}

TEST(CsvChunkedReadTest, OpenQuoteAcrossCutsOutranksARaggedRow) {
  std::string rows;
  for (int i = 0; i < 20; ++i) {
    rows += "1,a\n";
  }
  for (const std::string& text : {"x,y\n" + rows + "\"open\n" + rows,
                                  "x,y\n1,a\n2\n" + rows + "\"open,\n\n" + rows}) {
    std::string got = ExpectSameAtEveryGrain(text, {}, "open quote");
    EXPECT_EQ(got, "error InvalidArgument: CSV input ends inside a quoted field");
  }
}

TEST(ShardReaderChunkInvarianceTest, ShardsMatchReadStringAtEveryCut) {
  std::string path = ::testing::TempDir() + "/shard_reader_chunk_invariance.csv";
  std::vector<std::string> corpus = ChunkInvarianceCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string& text = corpus[i];
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    for (bool has_header : {true, false}) {
      ReadOptions csv_options;
      csv_options.has_header = has_header;
      // A read cut at every third byte, which every grain matches.
      Result<Table> whole = internal::ReadString(text, csv_options, 3);
      for (size_t buffer_bytes : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
                                  size_t{1} << 18}) {
        for (size_t shard_rows : {size_t{1}, size_t{3}, size_t{1000}}) {
          std::string context = "input " + std::to_string(i) + " header " +
                                std::to_string(has_header) + " buffer_bytes " +
                                std::to_string(buffer_bytes) + " shard_rows " +
                                std::to_string(shard_rows);
          ShardReaderOptions options;
          options.csv = csv_options;
          options.buffer_bytes = buffer_bytes;
          options.shard_rows = shard_rows;
          Status failure;
          size_t rows = 0;
          Result<ShardReader> reader = ShardReader::Open(path, options);
          if (!reader.ok()) {
            failure = reader.status();
          } else {
            if (whole.ok()) {
              ASSERT_EQ(reader->column_names().size(), whole->NumColumns()) << context;
              for (size_t c = 0; c < whole->NumColumns(); ++c) {
                EXPECT_EQ(reader->column_names()[c], whole->schema().field(c).name) << context;
                EXPECT_EQ(reader->numeric()[c],
                          whole->schema().field(c).type == ColumnType::kNumeric)
                    << context;
              }
            }
            while (true) {
              Result<std::optional<Table>> shard = reader->Next();
              if (!shard.ok()) {
                failure = shard.status();
                break;
              }
              if (!shard->has_value()) {
                break;
              }
              const Table& table = **shard;
              ASSERT_TRUE(whole.ok()) << context << ": shard read from an input ReadString rejects";
              ASSERT_LE(table.NumRows(), shard_rows) << context;
              ASSERT_LE(rows + table.NumRows(), whole->NumRows()) << context;
              ASSERT_EQ(table.NumColumns(), whole->NumColumns()) << context;
              for (size_t c = 0; c < table.NumColumns(); ++c) {
                EXPECT_EQ(table.schema().field(c).name, whole->schema().field(c).name) << context;
                EXPECT_EQ(table.schema().field(c).type, whole->schema().field(c).type) << context;
              }
              for (size_t r = 0; r < table.NumRows(); ++r) {
                ExpectSameRow(*whole, rows + r, table, r, context);
              }
              rows += table.NumRows();
            }
          }
          if (whole.ok()) {
            ASSERT_TRUE(failure.ok()) << context << ": " << failure.ToString();
            EXPECT_EQ(rows, whole->NumRows()) << context;
            EXPECT_EQ(reader->num_data_rows(), whole->NumRows()) << context;
          } else {
            ASSERT_FALSE(failure.ok()) << context << ": ReadString failed with "
                                       << whole.status().ToString();
            EXPECT_EQ(failure.code(), whole.status().code()) << context;
            EXPECT_EQ(failure.message(), whole.status().message()) << context;
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ShardReaderChunkInvarianceTest, RecordLongerThanTheBufferReadsWhole) {
  // One record many times buffer_bytes long, with an unquoted and a quoted
  // field, is carried across hundreds of reads and still reads whole.
  std::string path = ::testing::TempDir() + "/shard_reader_long_record.csv";
  std::string plain(100000, 'p');
  std::string quoted(100000, 'q');
  quoted[5000] = '\n';
  quoted[6000] = '"';
  std::string escaped;
  for (char c : quoted) {
    escaped += c == '"' ? std::string("\"\"") : std::string(1, c);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "a,b\r\nshort,1\r\n" << plain << ",\"" << escaped << "\"\r\nlast,2\r\n";
  }
  ShardReaderOptions options;
  options.buffer_bytes = 64;
  options.shard_rows = 2;
  Result<ShardReader> reader = ShardReader::Open(path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<std::string> a;
  std::vector<std::string> b;
  while (true) {
    Result<std::optional<Table>> shard = reader->Next();
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    if (!shard->has_value()) {
      break;
    }
    for (size_t r = 0; r < (*shard)->NumRows(); ++r) {
      a.push_back((*shard)->column(0).CategoryAt(r));
      b.push_back((*shard)->column(1).CategoryAt(r));
    }
  }
  EXPECT_EQ(a, (std::vector<std::string>{"short", plain, "last"}));
  EXPECT_EQ(b, (std::vector<std::string>{"1", quoted, "2"}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The shard index: every indexed range, read alone by a ShardRangeReader,
// is exactly the shard ShardReader::Next yields, whatever the line endings,
// quoted newlines, blank lines and read chunking around the boundaries.

// 40 records of three fields. Quoted '\n' and "\r\n" and a quoted comma
// recur every few rows, so with shard_rows 1, 7 and 64 they sit on both
// sides of boundaries, as do the blank lines after every fifth record.
std::string IndexCorpus(const std::string& eol, bool header, bool final_newline) {
  std::string text = header ? "id,text,value" + eol : "";
  for (int i = 0; i < 40; ++i) {
    text += std::to_string(i) + ",";
    switch (i % 5) {
      case 0:
        text.append("w").append(std::to_string(i));
        break;
      case 1:
        text += "\"x\ny" + std::to_string(i) + "\"";
        break;
      case 2:
        text += "\"p\r\nq" + std::to_string(i) + "\"";
        break;
      case 3:
        text += "\"c," + std::to_string(i) + "\"";
        break;
      default:
        break;  // an empty cell
    }
    text += ',';
    if (i % 6 != 0) {
      text += std::to_string(i * 0.5);
    }
    if (i + 1 < 40 || final_newline) {
      text += eol;
    }
    if (i % 5 == 4 && i + 1 < 40) {
      text += eol + eol;  // blank lines between records
    }
  }
  return text;
}

std::vector<Table> ReadAllShards(ShardReader& reader, const std::string& context) {
  std::vector<Table> shards;
  while (true) {
    Result<std::optional<Table>> shard = reader.Next();
    EXPECT_TRUE(shard.ok()) << context << ": " << shard.status().ToString();
    if (!shard.ok() || !shard->has_value()) {
      return shards;
    }
    shards.push_back(std::move(**shard));
  }
}

void ExpectSameTable(const Table& want, const Table& got, const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  ASSERT_EQ(got.NumColumns(), want.NumColumns()) << context;
  for (size_t r = 0; r < want.NumRows(); ++r) {
    ExpectSameRow(want, r, got, r, context);
  }
}

Result<Table> ReadRangeAlone(const std::string& path, const ShardReaderOptions& options,
                             const ShardReader& reader, const ShardRange& range) {
  SCODED_ASSIGN_OR_RETURN(ShardRangeReader alone,
                          ShardRangeReader::Open(path, options, reader.column_names(),
                                                 reader.numeric(), range));
  SCODED_ASSIGN_OR_RETURN(std::optional<Table> shard, alone.Next());
  if (!shard.has_value()) {
    return InternalError("range yielded no shard");
  }
  SCODED_ASSIGN_OR_RETURN(std::optional<Table> after, alone.Next());
  if (after.has_value()) {
    return InternalError("range yielded a second shard");
  }
  return std::move(*shard);
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace

TEST(ShardIndexTest, EveryRangeReadAloneEqualsItsShard) {
  std::string path = ::testing::TempDir() + "/shard_index_ranges.csv";
  for (const std::string eol : {"\n", "\r\n"}) {
    for (bool header : {true, false}) {
      for (bool final_newline : {true, false}) {
        const std::string text = IndexCorpus(eol, header, final_newline);
        WriteText(path, text);
        for (size_t shard_rows : {size_t{1}, size_t{7}, size_t{64}}) {
          for (size_t buffer_bytes : {size_t{1}, size_t{7}, size_t{4096}}) {
            std::string context = std::string(eol == "\n" ? "LF" : "CRLF") + " header " +
                                  std::to_string(header) + " final_newline " +
                                  std::to_string(final_newline) + " shard_rows " +
                                  std::to_string(shard_rows) + " buffer_bytes " +
                                  std::to_string(buffer_bytes);
            ShardReaderOptions options;
            options.csv.has_header = header;
            options.shard_rows = shard_rows;
            options.buffer_bytes = buffer_bytes;
            Result<ShardReader> reader = ShardReader::Open(path, options);
            ASSERT_TRUE(reader.ok()) << context << ": " << reader.status().ToString();
            const ShardIndex& index = reader->index();
            EXPECT_EQ(index.file_bytes, text.size()) << context;
            EXPECT_EQ(index.num_shards(), (40 + shard_rows - 1) / shard_rows) << context;
            std::vector<Table> shards = ReadAllShards(*reader, context);
            ASSERT_EQ(shards.size(), index.num_shards()) << context;
            // Last range first: no range depends on another having been read.
            for (uint64_t s = index.num_shards(); s-- > 0;) {
              std::string where = context + " shard " + std::to_string(s);
              ShardRange range = index.Range(s, s + 1);
              EXPECT_EQ(range.first_row, s * shard_rows) << where;
              EXPECT_EQ(range.rows, shards[s].NumRows()) << where;
              Result<Table> alone = ReadRangeAlone(path, options, *reader, range);
              ASSERT_TRUE(alone.ok()) << where << ": " << alone.status().ToString();
              ExpectSameTable(shards[s], *alone, where);
            }
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ShardIndexTest, BytesBeforeARangeAreNeverRead) {
  // Overwriting bytes of shard 0 after the first pass, keeping the length:
  // every later range still reads exactly as before, which it could not if
  // it parsed anything before its own first byte; shard 0 itself fails.
  std::string path = ::testing::TempDir() + "/shard_index_overwrite.csv";
  std::string text = IndexCorpus("\r\n", true, true);
  WriteText(path, text);
  ShardReaderOptions options;
  options.shard_rows = 7;
  options.buffer_bytes = 16;
  ShardReader reader = ShardReader::Open(path, options).value();
  std::vector<Table> shards = ReadAllShards(reader, "before");
  const ShardIndex& index = reader.index();
  ASSERT_GE(index.num_shards(), 3u);
  // Every byte of shard 0 becomes ';', terminators included, so its range
  // no longer parses into its rows and its end.
  for (uint64_t b = index.offsets[0]; b < index.offsets[1]; ++b) {
    text[b] = ';';
  }
  WriteText(path, text);
  for (uint64_t s = 1; s < index.num_shards(); ++s) {
    Result<Table> alone = ReadRangeAlone(path, options, reader, index.Range(s, s + 1));
    ASSERT_TRUE(alone.ok()) << "shard " << s << ": " << alone.status().ToString();
    ExpectSameTable(shards[s], *alone, "shard " + std::to_string(s));
  }
  Result<Table> damaged = ReadRangeAlone(path, options, reader, index.Range(0, 1));
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss) << damaged.status().ToString();
  std::remove(path.c_str());
}

TEST(ShardIndexTest, TruncationAndMovedBoundariesAreDataLoss) {
  std::string path = ::testing::TempDir() + "/shard_index_moved.csv";
  std::string text = "name,score\n";
  for (int i = 0; i < 30; ++i) {
    text.append("r").append(std::to_string(i)).append(",").append(std::to_string(10 + i));
    text += '\n';
  }
  WriteText(path, text);
  ShardReaderOptions options;
  options.shard_rows = 10;
  ShardReader reader = ShardReader::Open(path, options).value();
  const ShardIndex& index = reader.index();
  ASSERT_EQ(index.num_shards(), 3u);
  auto expect_data_loss = [&](uint64_t begin, uint64_t end, const std::string& what) {
    Result<Table> table = ReadRangeAlone(path, options, reader, index.Range(begin, end));
    ASSERT_FALSE(table.ok()) << what;
    EXPECT_EQ(table.status().code(), StatusCode::kDataLoss) << what << ": "
                                                            << table.status().ToString();
  };

  // Truncated into the last shard: the last range runs out of rows, and
  // one cut before a middle range's end fails before it reads anything.
  WriteText(path, text.substr(0, text.size() - 5));
  expect_data_loss(2, 3, "truncated last range");
  WriteText(path, text.substr(0, index.offsets[2] - 1));
  expect_data_loss(1, 2, "range past the truncated end");
  expect_data_loss(0, 3, "whole file after truncation");

  // Same length, but record 9 (shard 0's last) gains two bytes that record
  // 10 (shard 1's first) loses: the indexed boundary now lies inside a record.
  std::string moved = text;
  const size_t at = moved.find("r9,19\nr10,20\n");
  ASSERT_NE(at, std::string::npos);
  moved.replace(at, 13, "r9,1900\nr1,2\n");
  ASSERT_EQ(moved.size(), text.size());
  WriteText(path, moved);
  expect_data_loss(0, 1, "range whose last record now ends past the index");
  expect_data_loss(1, 2, "range that now starts inside a record");
  // The third shard's bytes did not change.
  Result<Table> last = ReadRangeAlone(path, options, reader, index.Range(2, 3));
  EXPECT_TRUE(last.ok()) << last.status().ToString();
  std::remove(path.c_str());
}

TEST(ShardIndexTest, TheRecordWidthBoundsARangeExactly) {
  // Three records of two empty fields, the last without a terminator: 5
  // bytes hold 3 rows of 2 fields, as many as rows * width <= bytes + 1
  // allows.
  std::string path = ::testing::TempDir() + "/shard_index_width.csv";
  WriteText(path, "a,b\n,\n,\n,");
  ShardReaderOptions options;
  ShardReader reader = ShardReader::Open(path, options).value();
  ShardRange range = reader.index().Range(0, 1);
  ASSERT_EQ(range.end_byte - range.begin_byte, 5u);
  ASSERT_EQ(range.rows, 3u);
  Result<Table> table = ReadRangeAlone(path, options, reader, range);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->NumRows(), 3u);

  // One more row or one more column cannot fit, and is refused before the
  // file is opened.
  auto open_code = [&](const ShardRange& bad, const std::vector<bool>& numeric) {
    std::vector<std::string> names(numeric.size(), "c");
    return ShardRangeReader::Open("/nonexistent.csv", options, names, numeric, bad)
        .status()
        .code();
  };
  ShardRange more_rows = range;
  more_rows.rows = 4;
  EXPECT_EQ(open_code(more_rows, reader.numeric()), StatusCode::kInvalidArgument);
  EXPECT_EQ(open_code(range, {false, false, false}), StatusCode::kInvalidArgument);
  EXPECT_EQ(open_code(range, {}), StatusCode::kInvalidArgument);

  // Empty ranges, before the first record and at end of file, read as
  // nothing once their boundary checks pass.
  for (uint64_t at : {uint64_t{0}, uint64_t{1}}) {
    Result<ShardRangeReader> empty = ShardRangeReader::Open(
        path, options, reader.column_names(), reader.numeric(), reader.index().Range(at, at));
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    Result<std::optional<Table>> none = empty->Next();
    ASSERT_TRUE(none.ok()) << "at " << at << ": " << none.status().ToString();
    EXPECT_FALSE(none->has_value()) << "at " << at;
  }
  std::remove(path.c_str());
}

}  // namespace scoded::csv
