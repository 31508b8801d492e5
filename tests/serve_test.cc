// The scoded serve daemon: wire framing, request routing, session
// lifecycle (backpressure, idle eviction), client/server round trips,
// and the parity contract — a streamed session's statistics are
// bit-identical to a local monitor over the same batches, and a remote
// check's verdict line is byte-identical to `scoded check`.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/net.h"
#include "common/rng.h"
#include "constraints/sc.h"
#include "core/scoded.h"
#include "core/stream_monitor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/render.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "stats/shard_stats.h"
#include "table/csv.h"

namespace scoded {
namespace {

using net::DialLoopback;
using net::TcpConn;
using net::TcpListener;

struct ConnPair {
  TcpConn client;
  TcpConn server;
};

void MakeConnectedPair(ConnPair* pair) {
  Result<TcpListener> listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread acceptor([&] {
    Result<TcpConn> accepted = listener->Accept();
    if (accepted.ok()) {
      pair->server = std::move(accepted).value();
    }
  });
  Result<TcpConn> client = DialLoopback(listener->port());
  acceptor.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  pair->client = std::move(client).value();
  ASSERT_TRUE(pair->server.valid());
}

// A small table with the fixture's shape: two categorical, two numeric.
Table CarsTable() {
  TableBuilder builder;
  builder
      .AddCategorical("Model", {"X1", "X1", "X3", "X3", "X1", "X3", "X1", "X3", "X1",
                                "X3", "X1", "X3"})
      .AddCategorical("Color", {"White", "Black", "White", "Black", "White", "Black",
                                "Black", "White", "White", "Black", "Black", "White"})
      .AddNumeric("Price", {41000, 40500, 52000, 51000, 42000, 53000, 40800, 51500,
                            41500, 52500, 40200, 51800})
      .AddNumeric("Mileage", {12000, 15000, 8000, 9500, 9000, 7000, 16000, 8800, 11000,
                              7500, 17000, 8200});
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

ApproximateSc MustConstraint(const std::string& text, double alpha) {
  Result<StatisticalConstraint> sc = ParseConstraint(text);
  EXPECT_TRUE(sc.ok()) << sc.status().ToString();
  return {std::move(sc).value(), alpha};
}

JsonValue MustParse(const std::string& payload) {
  Result<JsonValue> parsed = ParseJson(payload);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in " << payload;
  return parsed.ok() ? std::move(parsed).value() : JsonValue{};
}

bool ResponseOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value;
}

std::string ResponseCode(const JsonValue& response) {
  const JsonValue* code = response.Find("code");
  return code != nullptr && code->is_string() ? code->string_value : "";
}

// ---------------------------------------------------------------------------
// Framing

TEST(FramingTest, RoundTripsPayloadsIncludingEmpty) {
  ConnPair pair;
  ASSERT_NO_FATAL_FAILURE(MakeConnectedPair(&pair));

  const std::string payloads[] = {"", "{}", R"({"op":"ping"})",
                                  std::string(100000, 'x')};
  // Write all frames back-to-back, then read them back in order: the
  // length prefix, not timing, delimits messages.
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(serve::WriteFrame(pair.server, payload).ok());
  }
  for (const std::string& payload : payloads) {
    Result<std::string> got = serve::ReadFrame(pair.client);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
  }
}

TEST(FramingTest, RejectsOversizedLengthAnnounce) {
  ConnPair pair;
  ASSERT_NO_FATAL_FAILURE(MakeConnectedPair(&pair));

  // A hostile 4-byte prefix announcing ~4 GiB: rejected from the prefix
  // alone, before any payload allocation.
  ASSERT_TRUE(pair.server.WriteAll(std::string("\xff\xff\xff\xff", 4)).ok());
  Result<std::string> got = serve::ReadFrame(pair.client, /*max_bytes=*/1024);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FramingTest, WriteRejectsPayloadOverLimit) {
  ConnPair pair;
  ASSERT_NO_FATAL_FAILURE(MakeConnectedPair(&pair));
  std::string huge(serve::kMaxFrameBytes + size_t{1}, 'x');
  EXPECT_EQ(serve::WriteFrame(pair.server, huge).code(), StatusCode::kInvalidArgument);
}

TEST(FramingTest, DistinguishesCleanEofFromTruncation) {
  {
    // Peer departs between frames: clean end-of-stream.
    ConnPair pair;
    ASSERT_NO_FATAL_FAILURE(MakeConnectedPair(&pair));
    pair.server.Close();
    Result<std::string> got = serve::ReadFrame(pair.client);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  }
  {
    // Peer dies mid-prefix: a truncated frame.
    ConnPair pair;
    ASSERT_NO_FATAL_FAILURE(MakeConnectedPair(&pair));
    ASSERT_TRUE(pair.server.WriteAll(std::string("\x00\x00", 2)).ok());
    pair.server.Close();
    Result<std::string> got = serve::ReadFrame(pair.client);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
  {
    // Peer dies mid-payload: also truncation.
    ConnPair pair;
    ASSERT_NO_FATAL_FAILURE(MakeConnectedPair(&pair));
    ASSERT_TRUE(pair.server.WriteAll(std::string("\x00\x00\x00\x0a" "abc", 7)).ok());
    pair.server.Close();
    Result<std::string> got = serve::ReadFrame(pair.client);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
}

// ---------------------------------------------------------------------------
// The DOM batch decoder the daemon ran before serve::ReadBatchJson: the
// oracle the one-pass decoder must agree with, rule for rule.

Result<double> OracleNonFiniteToken(const std::string& token) {
  if (token == "nan") {
    return std::nan("");
  }
  if (token == "inf") {
    return HUGE_VAL;
  }
  if (token == "-inf") {
    return -HUGE_VAL;
  }
  return InvalidArgumentError("unknown numeric token '" + token +
                              "' (expected nan, inf, or -inf)");
}

Result<Column> OracleNumericColumn(const JsonValue& column) {
  const JsonValue* values = column.Find("values");
  if (values == nullptr || !values->is_array()) {
    return InvalidArgumentError("numeric column is missing its values array");
  }
  std::vector<double> out;
  std::vector<bool> valid;
  bool masked = false;  // a null cell or a "nan" token
  for (const JsonValue& cell : values->array) {
    if (cell.is_null()) {
      out.push_back(std::nan(""));
      valid.push_back(false);
      masked = true;
    } else if (cell.is_number()) {
      out.push_back(cell.number);
      valid.push_back(true);
    } else if (cell.is_string()) {
      Result<double> parsed = OracleNonFiniteToken(cell.string_value);
      if (!parsed.ok()) {
        return parsed.status();
      }
      out.push_back(*parsed);
      valid.push_back(true);
      masked = masked || std::isnan(*parsed);
    } else {
      return InvalidArgumentError("numeric cell must be a number, null, or non-finite token");
    }
  }
  return masked ? Column::NumericWithNulls(std::move(out), std::move(valid))
                  : Column::Numeric(std::move(out));
}

Result<Column> OracleCategoricalColumn(const JsonValue& column) {
  const JsonValue* codes = column.Find("codes");
  const JsonValue* dict = column.Find("dict");
  if (codes == nullptr || !codes->is_array() || dict == nullptr || !dict->is_array()) {
    return InvalidArgumentError("categorical column needs codes and dict arrays");
  }
  std::vector<std::string> dictionary;
  for (const JsonValue& entry : dict->array) {
    if (!entry.is_string()) {
      return InvalidArgumentError("categorical dictionary entries must be strings");
    }
    dictionary.push_back(entry.string_value);
  }
  std::vector<int32_t> out;
  for (const JsonValue& cell : codes->array) {
    Result<int64_t> code =
        JsonInteger(cell, -1, static_cast<int64_t>(dictionary.size()) - 1, "categorical code");
    if (!code.ok()) {
      return code.status();
    }
    out.push_back(static_cast<int32_t>(*code));
  }
  return Column::CategoricalFromCodes(std::move(out), std::move(dictionary));
}

Result<Table> OracleParseBatchJson(const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgumentError("batch must be an object");
  }
  const JsonValue* columns = value.Find("columns");
  if (columns == nullptr || !columns->is_array()) {
    return InvalidArgumentError("batch is missing its columns array");
  }
  TableBuilder builder;
  for (const JsonValue& column : columns->array) {
    const JsonValue* name = column.Find("name");
    const JsonValue* type = column.Find("type");
    if (name == nullptr || !name->is_string() || type == nullptr || !type->is_string()) {
      return InvalidArgumentError("batch columns need string name and type members");
    }
    Result<Column> parsed = InvalidArgumentError("unknown column type '" + type->string_value + "'");
    if (type->string_value == "numeric") {
      parsed = OracleNumericColumn(column);
    } else if (type->string_value == "categorical") {
      parsed = OracleCategoricalColumn(column);
    }
    if (!parsed.ok()) {
      return parsed.status();
    }
    builder.AddColumn(name->string_value, std::move(parsed).value());
  }
  Result<Table> batch = std::move(builder).Build();
  if (!batch.ok()) {
    return batch.status();
  }
  const JsonValue* rows = value.Find("rows");
  if (rows != nullptr && rows->is_number()) {
    Result<int64_t> count = JsonInteger(*rows, 0, INT64_MAX, "batch rows");
    if (!count.ok()) {
      return count.status();
    }
    if (static_cast<uint64_t>(*count) != batch->NumRows()) {
      return InvalidArgumentError("batch rows field disagrees with its column lengths");
    }
  }
  return batch;
}

// Reads `text` as one batch value with serve::ReadBatchJson; a syntax error
// fails the test.
Result<Table> DecodeBatch(const std::string& text) {
  JsonReader reader(text);
  Result<Table> batch = serve::ReadBatchJson(reader);
  Status syntax = reader.End();
  EXPECT_TRUE(syntax.ok()) << syntax.ToString() << " in " << text;
  return syntax.ok() ? std::move(batch) : Result<Table>(syntax);
}

// Names, types, null masks, value bits, codes and dictionaries agree.
void ExpectSameTableBits(const Table& got, const Table& want, const std::string& context) {
  ASSERT_EQ(got.NumColumns(), want.NumColumns()) << context;
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  for (size_t c = 0; c < want.NumColumns(); ++c) {
    ASSERT_EQ(got.schema().field(c).name, want.schema().field(c).name) << context;
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    ASSERT_EQ(g.type(), w.type()) << context;
    for (size_t row = 0; row < w.size(); ++row) {
      ASSERT_EQ(g.IsNull(row), w.IsNull(row)) << context << " column " << c << " row " << row;
      if (w.type() == ColumnType::kNumeric) {
        ASSERT_EQ(std::bit_cast<uint64_t>(g.NumericAt(row)),
                  std::bit_cast<uint64_t>(w.NumericAt(row)))
            << context << " column " << c << " row " << row;
      } else {
        ASSERT_EQ(g.CodeAt(row), w.CodeAt(row)) << context << " column " << c << " row " << row;
      }
    }
    if (w.type() == ColumnType::kCategorical) {
      ASSERT_EQ(g.dictionary(), w.dictionary()) << context << " column " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire encoding: schema and batch round trips must be exact.

TEST(WireTest, SchemaRoundTrips) {
  Table table = CarsTable();
  JsonWriter json;
  serve::WriteSchemaJson(table.schema(), json);
  Result<Schema> back = serve::ParseSchemaJson(MustParse(json.str()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumFields(), table.schema().NumFields());
  for (size_t i = 0; i < back->NumFields(); ++i) {
    EXPECT_EQ(back->field(i).name, table.schema().field(i).name);
    EXPECT_EQ(back->field(i).type, table.schema().field(i).type);
  }
}

TEST(WireTest, BatchRoundTripIsBitExact) {
  // Awkward doubles on purpose: values whose shortest decimal form is
  // long, denormals, negative zero, and non-finite cells.
  TableBuilder builder;
  builder
      .AddNumericWithNulls("x",
                           {0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), 0.0},
                           {true, true, true, true, true, true, true, true, false})
      .AddCategorical("c", {"a", "b", "a", "c", "b", "a", "c", "c", "a"});
  Result<Table> table = std::move(builder).Build();
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  JsonWriter json;
  serve::WriteBatchJson(*table, json);
  // The wire text byte for byte, as the snprintf-based writer produced it.
  EXPECT_EQ(json.str(),
            R"({"rows":9,"columns":[{"name":"x","type":"numeric","values":[0.10000000000000001,)"
            R"(0.33333333333333331,-0,4.9406564584124654e-324,1e+308,"nan","inf","-inf",null]},)"
            R"({"name":"c","type":"categorical","codes":[0,1,0,2,1,0,2,2,0],"dict":["a","b","c"]}]})");
  Result<Table> back = DecodeBatch(json.str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Result<Table> oracle = OracleParseBatchJson(MustParse(json.str()));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExpectSameTableBits(*back, *oracle, "round trip");
  ASSERT_EQ(back->NumRows(), table->NumRows());
  ASSERT_EQ(back->NumColumns(), table->NumColumns());

  const Column& x = table->column(0);
  const Column& x_back = back->column(0);
  for (size_t row = 0; row < table->NumRows(); ++row) {
    ASSERT_EQ(x.IsNull(row), x_back.IsNull(row)) << "row " << row;
    if (x.IsNull(row)) {
      continue;
    }
    double original = x.NumericAt(row);
    double round_tripped = x_back.NumericAt(row);
    if (std::isnan(original)) {
      EXPECT_TRUE(std::isnan(round_tripped)) << "row " << row;
    } else {
      // Bitwise, not approximate: -0.0 must stay -0.0.
      EXPECT_EQ(std::signbit(original), std::signbit(round_tripped)) << "row " << row;
      EXPECT_EQ(original, round_tripped) << "row " << row;
    }
  }
  const Column& c = table->column(1);
  const Column& c_back = back->column(1);
  for (size_t row = 0; row < table->NumRows(); ++row) {
    EXPECT_EQ(c.CodeAt(row), c_back.CodeAt(row)) << "row " << row;
  }
}

TEST(WireTest, NanCellInABatchWithNoNullStaysAValue) {
  // Without a validity mask Column::IsNull reads a NaN as null, so the
  // decoder masks any numeric column that carries a "nan" token.
  TableBuilder builder;
  builder.AddNumericWithNulls("x", {1.5, std::numeric_limits<double>::quiet_NaN(), -2.0},
                              {true, true, true});
  Result<Table> table = std::move(builder).Build();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  JsonWriter json;
  serve::WriteBatchJson(*table, json);
  ASSERT_NE(json.str().find("\"nan\""), std::string::npos) << json.str();
  ASSERT_EQ(json.str().find("null"), std::string::npos) << json.str();
  Result<Table> back = DecodeBatch(json.str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Result<Table> oracle = OracleParseBatchJson(MustParse(json.str()));
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExpectSameTableBits(*back, *oracle, "nan with no null");
  const Column& x = back->column(0);
  for (size_t row = 0; row < x.size(); ++row) {
    EXPECT_FALSE(x.IsNull(row)) << "row " << row;
  }
  EXPECT_TRUE(std::isnan(x.NumericAt(1)));
}

TEST(WireTest, NonIntegralOrOutOfRangeNumbersAreInvalidArgument) {
  // Wire numbers are doubles: each must be an exact integer in range
  // before it is cast.
  auto batch = [](const std::string& rows, const std::string& code) {
    return DecodeBatch(R"({"rows":)" + rows +
                       R"(,"columns":[{"name":"c","type":"categorical","codes":[0,)" + code +
                       R"(],"dict":["a","b"]}]})");
  };
  EXPECT_TRUE(batch("2", "1").ok());
  for (const char* code : {"1e300", "0.5", "2", "-2", "2147483648", "1e400"}) {
    Result<Table> decoded = batch("2", code);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << code;
    EXPECT_EQ(decoded.status().message(), "categorical code must be an integer in [-1, 1]")
        << code;
  }
  EXPECT_EQ(batch("-1", "1").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch("2.5", "1").status().code(), StatusCode::kInvalidArgument);

  // Summary specs travel as binary i64 columns: one that is not a column
  // index (negative, or past INT32_MAX) is rejected, not cast.
  Table table = CarsTable();
  const PairwiseShardSummary::Spec spec{0, 1, {}};
  PairwiseShardSummary summary(table, spec);
  summary.Accumulate(table, 0);
  std::vector<std::string> frames;
  ASSERT_TRUE(serve::WriteShardSummaryFrames(table.NumRows(), {summary.ToSnapshot()},
                                             [&](std::string_view frame) {
                                               frames.emplace_back(frame);
                                               return OkStatus();
                                             })
                  .ok());
  ASSERT_EQ(frames.size(), 1u);
  auto decode = [&](const std::string& body) {
    bool sent = false;
    return serve::ReadShardSummaryFrames(
        [&]() -> Result<std::string> {
          if (sent) {
            return UnavailableError("no more frames");
          }
          sent = true;
          return body;
        },
        {spec}, table.NumRows());
  };
  EXPECT_TRUE(decode(frames[0]).ok());
  for (uint64_t x : {uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string body = frames[0];
    for (int i = 0; i < 8; ++i) {
      body[8 + i] = static_cast<char>(x >> (8 * i));  // spec x follows the u64 row total
    }
    EXPECT_EQ(decode(body).status().code(), StatusCode::kInvalidArgument) << x;
  }
}

// ---------------------------------------------------------------------------
// Binary shard-summary frames: the worker's summarize reply body.

// Numeric columns with negatives, both zeros, NaN and nulls; a categorical
// column with nulls; many distinct values so most cells are singletons.
Table ContinuousTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<bool> y_valid(n, true);
  std::vector<int32_t> g(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Uniform(-50.0, 50.0);
    y[i] = x[i] * 0.5 + rng.Uniform(-10.0, 10.0);
    int64_t pick = rng.UniformInt(0, 39);
    if (pick == 0) {
      x[i] = 0.0;
    } else if (pick == 1) {
      x[i] = -0.0;
    } else if (pick == 2) {
      y[i] = std::nan("");
    } else if (pick == 3) {
      y_valid[i] = false;
    }
    g[i] = rng.UniformInt(0, 9) == 0 ? -1 : static_cast<int32_t>(rng.UniformInt(0, 2));
  }
  Result<Table> table =
      std::move(TableBuilder()
                    .AddNumeric("X", std::move(x))
                    .AddNumericWithNulls("Y", std::move(y), std::move(y_valid))
                    .AddColumn("G", Column::CategoricalFromCodes(std::move(g), {"a", "b", "c"})))
          .Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

const std::vector<PairwiseShardSummary::Spec> kContinuousSpecs = {{0, 1, {}}, {2, 1, {0}}};

// The body the worker would send for `table`, frame by frame.
std::vector<std::string> EncodeSummaries(const Table& table) {
  std::vector<PairwiseShardSummary::Snapshot> snapshots;
  for (const PairwiseShardSummary::Spec& spec : kContinuousSpecs) {
    snapshots.push_back(PairwiseShardSummary::FromShard(table, spec, 0).ToSnapshot());
  }
  std::vector<std::string> frames;
  Status written = serve::WriteShardSummaryFrames(table.NumRows(), snapshots,
                                                  [&](std::string_view frame) {
                                                    frames.emplace_back(frame);
                                                    return OkStatus();
                                                  });
  EXPECT_TRUE(written.ok()) << written.ToString();
  return frames;
}

// Decodes `frames`, then reads as a closed connection.
Result<serve::ShardSummaryFrames> DecodeSummaries(const std::vector<std::string>& frames,
                                                  uint64_t max_rows) {
  size_t next = 0;
  return serve::ReadShardSummaryFrames(
      [&]() -> Result<std::string> {
        if (next == frames.size()) {
          return UnavailableError("connection closed");
        }
        return frames[next++];
      },
      kContinuousSpecs, max_rows);
}

// Checks a decoded body within the range's bound, and that each summary
// either restores and finishes or fails with a typed status.
void ExpectBoundedAndRestorable(const serve::ShardSummaryFrames& body, const Table& schema,
                                uint64_t max_rows) {
  EXPECT_LE(body.rows, max_rows);
  for (const PairwiseShardSummary::Snapshot& snapshot : body.snapshots) {
    EXPECT_LE(snapshot.counts.size(), max_rows);
    EXPECT_EQ(snapshot.keys.size(), snapshot.counts.size() * (snapshot.spec.z_cols.size() + 2));
    for (const std::vector<std::string>& dict : snapshot.dicts) {
      EXPECT_LE(dict.size(), max_rows);
    }
    Result<PairwiseShardSummary> restored = PairwiseShardSummary::FromSnapshot(schema, snapshot);
    if (restored.ok()) {
      EXPECT_TRUE(restored->Finish(TestOptions{}).ok());
    } else {
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireTest, SummaryFramesRoundTripAtAnyFrameCut) {
  Table table = ContinuousTable(600, 5);
  std::vector<std::string> frames = EncodeSummaries(table);
  ASSERT_EQ(frames.size(), 1u);
  const std::string body = frames[0];
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    // The same bytes cut anywhere, values straddling frames included.
    std::vector<std::string> cut;
    size_t at = 0;
    while (at < body.size()) {
      size_t take = trial == 0 ? body.size() : static_cast<size_t>(rng.UniformInt(1, 97));
      cut.push_back(body.substr(at, take));
      at += take;
    }
    Result<serve::ShardSummaryFrames> decoded = DecodeSummaries(cut, table.NumRows());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->rows, table.NumRows());
    ASSERT_EQ(decoded->snapshots.size(), kContinuousSpecs.size());
    for (size_t c = 0; c < kContinuousSpecs.size(); ++c) {
      PairwiseShardSummary::Snapshot want =
          PairwiseShardSummary::FromShard(table, kContinuousSpecs[c], 0).ToSnapshot();
      const PairwiseShardSummary::Snapshot& got = decoded->snapshots[c];
      EXPECT_EQ(got.role_types, want.role_types);
      EXPECT_EQ(got.dicts, want.dicts);
      EXPECT_EQ(got.keys, want.keys);
      EXPECT_EQ(got.counts, want.counts);
      EXPECT_EQ(got.first_rows, want.first_rows);
      EXPECT_EQ(got.rows, want.rows);
      EXPECT_TRUE(PairwiseShardSummary::FromSnapshot(table, got).ok());
    }
  }
}

TEST(WireTest, LargeSummaryBodySplitsIntoBoundedFrames) {
  // 40k distinct (X, Y) cells are 1.28 MB of cell arrays on their own.
  Table table = ContinuousTable(40000, 6);
  std::vector<std::string> frames = EncodeSummaries(table);
  ASSERT_GE(frames.size(), 2u);
  for (const std::string& frame : frames) {
    EXPECT_LE(frame.size(), serve::kSummaryFrameBytes);
    EXPECT_FALSE(frame.empty());
  }
  Result<serve::ShardSummaryFrames> decoded = DecodeSummaries(frames, table.NumRows());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->snapshots[0].counts.size(),
            PairwiseShardSummary::FromShard(table, kContinuousSpecs[0], 0).num_cells());
  // A row bound below the claimed rows is refused before anything is read.
  Result<serve::ShardSummaryFrames> bounded = DecodeSummaries(frames, table.NumRows() - 1);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, TruncatedSummaryBodyIsATypedError) {
  Table table = ContinuousTable(40, 7);
  const std::string body = EncodeSummaries(table)[0];
  for (size_t size = 0; size < body.size(); ++size) {
    Result<serve::ShardSummaryFrames> decoded =
        DecodeSummaries({body.substr(0, size)}, table.NumRows());
    ASSERT_FALSE(decoded.ok()) << "cut at " << size;
    StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument || code == StatusCode::kUnavailable)
        << "cut at " << size << ": " << decoded.status().ToString();
  }
  // Bytes past the last summary are refused too.
  EXPECT_EQ(DecodeSummaries({body + "x"}, table.NumRows()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, MutatedSummaryBodiesFailTypedWithinTheRowBound) {
  // A worker's bytes are untrusted: every mutation decodes, or fails with a
  // typed status, without crashing or sizing anything past the task's row
  // bound (the sanitizer job would flag a runaway allocation).
  Table table = ContinuousTable(60, 8);
  const uint64_t max_rows = table.NumRows();
  const std::string body = EncodeSummaries(table)[0];
  const uint64_t extremes[] = {0,
                               1,
                               max_rows,
                               max_rows + 1,
                               uint64_t{1} << 31,
                               uint64_t{1} << 62,
                               static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
                               static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
                               ~uint64_t{0}};
  Rng rng(20261018);
  int decoded_ok = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::string mutated = body;
    int64_t kind = rng.UniformInt(0, 4);
    size_t at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(body.size()) - 1));
    if (kind == 0) {  // flip a few bytes
      for (int64_t k = rng.UniformInt(1, 4); k > 0; --k) {
        size_t where =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(body.size()) - 1));
        mutated[where] = static_cast<char>(mutated[where] ^ (1 << rng.UniformInt(0, 7)));
      }
    } else if (kind == 1 && at + 8 <= mutated.size()) {  // an extreme 64-bit word
      uint64_t value =
          extremes[rng.UniformInt(0, static_cast<int64_t>(std::size(extremes)) - 1)];
      for (int i = 0; i < 8; ++i) {
        mutated[at + i] = static_cast<char>(value >> (8 * i));
      }
    } else if (kind == 2) {  // drop a run of bytes
      mutated.erase(at, static_cast<size_t>(rng.UniformInt(1, 16)));
    } else if (kind == 3) {  // insert junk
      mutated.insert(at, std::string(static_cast<size_t>(rng.UniformInt(1, 16)),
                                     static_cast<char>(rng.UniformInt(0, 255))));
    } else {  // duplicate a slice
      mutated.insert(at, body.substr(at, static_cast<size_t>(rng.UniformInt(1, 64))));
    }
    Result<serve::ShardSummaryFrames> decoded = DecodeSummaries({mutated}, max_rows);
    if (decoded.ok()) {
      ++decoded_ok;
      ExpectBoundedAndRestorable(*decoded, table, max_rows);
    } else {
      StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument || code == StatusCode::kUnavailable)
          << decoded.status().ToString();
    }
  }
  // Some mutations (a flipped cell value, say) still decode; most do not.
  EXPECT_GT(decoded_ok, 0);
  EXPECT_LT(decoded_ok, 4000);
}

// ---------------------------------------------------------------------------
// Request router (no sockets).

TEST(ServeRouterTest, PingReportsProtocolAndSessions) {
  serve::Server server;
  JsonValue response = MustParse(server.HandleRequest(R"({"op":"ping"})"));
  ASSERT_TRUE(ResponseOk(response));
  const JsonValue* protocol = response.Find("protocol");
  ASSERT_NE(protocol, nullptr);
  EXPECT_EQ(protocol->number, 1.0);
  const JsonValue* sessions = response.Find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->number, 0.0);
}

TEST(ServeRouterTest, RejectsMalformedRequests) {
  serve::Server server;
  struct Case {
    const char* payload;
    const char* expected_code;
  };
  const Case cases[] = {
      {"this is not json", "InvalidArgument"},
      {R"({"no_op_member":true})", "InvalidArgument"},
      {R"({"op":"launch_missiles"})", "InvalidArgument"},
      {R"({"op":"check"})", "InvalidArgument"},            // missing csv/sc
      {R"({"op":"check","csv":"a\n1\n","sc":5})", "InvalidArgument"},
      {R"({"op":"open_session"})", "InvalidArgument"},     // missing schema
      {R"({"op":"query","session":"s999"})", "NotFound"},
      {R"({"op":"append_batch","session":"s999","batch":{"rows":0,"columns":[]}})",
       "NotFound"},
      {R"({"op":"close_session","session":"s999"})", "NotFound"},
  };
  for (const Case& c : cases) {
    JsonValue response = MustParse(server.HandleRequest(c.payload));
    EXPECT_FALSE(ResponseOk(response)) << c.payload;
    EXPECT_EQ(ResponseCode(response), c.expected_code) << c.payload;
  }
}

TEST(ServeRouterTest, LatencyHistogramCountsEachOpsRequests) {
  auto count = [](const char* op) {
    return obs::Metrics::Global()
        .FindOrCreateHistogram(std::string("serve.request_us.") + op)
        ->Count();
  };
  const int64_t pings = count("ping");
  const int64_t queries = count("query");
  const int64_t appends = count("append_batch");
  serve::Server server;
  for (int i = 0; i < 3; ++i) {
    server.HandleRequest(R"({"op":"ping"})");
  }
  // A request its handler refuses is timed too; one with no op to name
  // (malformed, or an unknown op) is not.
  server.HandleRequest(R"({"op":"query","session":"s999"})");
  server.HandleRequest(R"({"op":"query"})");
  server.HandleRequest("not json");
  server.HandleRequest(R"({"op":"launch_missiles"})");
  EXPECT_EQ(count("ping") - pings, 3);
  EXPECT_EQ(count("query") - queries, 2);
  EXPECT_EQ(count("append_batch") - appends, 0);
#if !defined(SCODED_OBS_DISABLED)
  // Exported on /metrics as a Prometheus histogram.
  std::string text = obs::RenderGlobalPrometheusText();
  EXPECT_NE(text.find("serve_request_us_ping_count"), std::string::npos);
  EXPECT_NE(text.find("serve_request_us_query_bucket"), std::string::npos);
#endif
}

TEST(ServeRouterTest, OpenSessionValidatesWindowAndConstraints) {
  serve::Server server;
  // Build a valid open_session, then poison one member at a time.
  JsonWriter schema_json;
  serve::WriteSchemaJson(CarsTable().schema(), schema_json);
  std::string schema = schema_json.str();

  std::string negative_window = R"({"op":"open_session","schema":)" + schema +
                                R"(,"constraints":[{"sc":"Model _||_ Color"}],"window":-1})";
  JsonValue response = MustParse(server.HandleRequest(negative_window));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(ResponseCode(response), "InvalidArgument");

  // A window must be an exact integer: 2.5 is not silently truncated, and
  // 1e300 / 1e999 (infinity) do not wrap to 0, which means unbounded.
  for (const char* window : {"2.5", "1e300", "1e999"}) {
    std::string bad_window = R"({"op":"open_session","schema":)" + schema +
                             R"(,"constraints":[{"sc":"Model _||_ Color"}],"window":)" +
                             window + "}";
    response = MustParse(server.HandleRequest(bad_window));
    EXPECT_FALSE(ResponseOk(response)) << window;
    EXPECT_EQ(ResponseCode(response), "InvalidArgument") << window;
    EXPECT_EQ(server.NumSessions(), 0u) << window;
  }

  std::string empty_constraints =
      R"({"op":"open_session","schema":)" + schema + R"(,"constraints":[]})";
  response = MustParse(server.HandleRequest(empty_constraints));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(ResponseCode(response), "InvalidArgument");

  std::string unknown_column = R"({"op":"open_session","schema":)" + schema +
                               R"(,"constraints":[{"sc":"Model _||_ Nope"}]})";
  response = MustParse(server.HandleRequest(unknown_column));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(server.NumSessions(), 0u);
}

TEST(ServeRouterTest, CheckMatchesInProcessScoded) {
  Table table = CarsTable();
  // Render the table to CSV text via the writer-independent route: build
  // the request from the same cells the in-process check sees.
  std::ostringstream csv;
  csv << "Model,Color,Price,Mileage\n";
  for (size_t row = 0; row < table.NumRows(); ++row) {
    csv << table.column(0).CategoryAt(row) << "," << table.column(1).CategoryAt(row)
        << "," << table.column(2).NumericAt(row) << "," << table.column(3).NumericAt(row)
        << "\n";
  }
  std::string csv_text = csv.str();

  ApproximateSc asc = MustConstraint("Model !_||_ Price", 0.3);
  Result<Table> parsed = csv::ReadString(csv_text);
  ASSERT_TRUE(parsed.ok());
  Scoded local(std::move(parsed).value());
  Result<ViolationReport> expected = local.CheckViolation(asc);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  serve::Server server;
  JsonWriter request;
  request.BeginObject();
  request.Key("op").String("check");
  request.Key("sc").String("Model !_||_ Price");
  request.Key("alpha").DoubleFull(0.3);
  request.Key("csv").String(csv_text);
  request.EndObject();
  JsonValue response = MustParse(server.HandleRequest(request.str()));
  ASSERT_TRUE(ResponseOk(response));

  // %.17g round-trips doubles exactly, so the parsed numbers must be
  // bitwise equal to the in-process result.
  EXPECT_EQ(response.Find("p_value")->number, expected->p_value);
  EXPECT_EQ(response.Find("statistic")->number, expected->test.statistic);
  EXPECT_EQ(response.Find("violated")->bool_value, expected->violated);
  EXPECT_EQ(response.Find("line")->string_value, serve::CheckResultLine(asc, *expected));
}

// The tentpole contract: a streamed session's per-constraint statistics
// equal a local StreamMonitor fed the same batches — to the last bit.
TEST(ServeParityTest, StreamedSessionMatchesLocalMonitor) {
  Table table = CarsTable();
  std::vector<ApproximateSc> constraints = {
      MustConstraint("Price !_||_ Mileage", 0.3),
      MustConstraint("Model _||_ Color", 0.05),
  };

  Result<Table> prototype = serve::EmptyTableForSchema(table.schema());
  ASSERT_TRUE(prototype.ok());
  Result<StreamMonitor> local = StreamMonitor::Create(*prototype, constraints);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  serve::Server server;
  JsonWriter open;
  open.BeginObject();
  open.Key("op").String("open_session");
  open.Key("schema");
  serve::WriteSchemaJson(table.schema(), open);
  open.Key("constraints").BeginArray();
  for (const ApproximateSc& asc : constraints) {
    open.BeginObject();
    open.Key("sc").String(asc.sc.ToString());
    open.Key("alpha").DoubleFull(asc.alpha);
    open.EndObject();
  }
  open.EndArray();
  open.Key("window").Uint(0);
  open.EndObject();
  JsonValue opened = MustParse(server.HandleRequest(open.str()));
  ASSERT_TRUE(ResponseOk(opened));
  std::string session = opened.Find("session")->string_value;

  const size_t kBatch = 5;
  for (size_t start = 0; start < table.NumRows(); start += kBatch) {
    std::vector<size_t> rows;
    for (size_t row = start; row < std::min(start + kBatch, table.NumRows()); ++row) {
      rows.push_back(row);
    }
    Table batch = table.Gather(rows);
    ASSERT_TRUE(local->Append(batch).ok());

    JsonWriter append;
    append.BeginObject();
    append.Key("op").String("append_batch");
    append.Key("session").String(session);
    append.Key("batch");
    serve::WriteBatchJson(batch, append);
    append.EndObject();
    JsonValue appended = MustParse(server.HandleRequest(append.str()));
    ASSERT_TRUE(ResponseOk(appended));
    EXPECT_EQ(appended.Find("records")->number,
              static_cast<double>(local->NumRecords()));

    // After every batch the remote states must match the local monitor
    // bitwise, and the rendered monitor rows byte-for-byte.
    JsonValue queried = MustParse(
        server.HandleRequest(R"({"op":"query","session":")" + session + R"("})"));
    ASSERT_TRUE(ResponseOk(queried));
    std::vector<StreamMonitor::ConstraintState> states = local->States();
    const JsonValue* remote_states = queried.Find("states");
    ASSERT_NE(remote_states, nullptr);
    ASSERT_EQ(remote_states->array.size(), states.size());
    for (size_t i = 0; i < states.size(); ++i) {
      const JsonValue& remote = remote_states->array[i];
      EXPECT_EQ(remote.Find("constraint")->string_value, states[i].constraint);
      EXPECT_EQ(remote.Find("p_value")->number, states[i].p_value);
      EXPECT_EQ(remote.Find("statistic")->number, states[i].statistic);
      EXPECT_EQ(remote.Find("violated")->bool_value, states[i].violated);
      EXPECT_EQ(remote.Find("line")->string_value, serve::MonitorStateLine(states[i]));
    }
    EXPECT_EQ(queried.Find("any_violated")->bool_value, local->AnyViolated());
  }

  JsonValue closed = MustParse(
      server.HandleRequest(R"({"op":"close_session","session":")" + session + R"("})"));
  EXPECT_TRUE(ResponseOk(closed));
  EXPECT_EQ(server.NumSessions(), 0u);
}

// ---------------------------------------------------------------------------
// Request decoding: the daemon reads a request in one pass, the batch with
// no DOM, and must answer exactly what the DOM decoder made it answer.

// BatchRoundTripIsBitExact's awkward cells, with a second column of each
// type so the table can feed a monitor.
Table AwkwardTable() {
  const double inf = std::numeric_limits<double>::infinity();
  Result<Table> table =
      std::move(TableBuilder()
                    .AddNumericWithNulls("x",
                                         {0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308,
                                          std::numeric_limits<double>::quiet_NaN(), inf, -inf,
                                          0.0},
                                         {true, true, true, true, true, true, true, true, false})
                    .AddNumeric("y", {1, 2, 3, 4, 5, 6, 7, 8, 9})
                    .AddCategorical("c", {"a", "b", "a", "c", "b", "a", "c", "c", "a"})
                    .AddCategorical("d", {"u", "v/w", "u", "v/w", "\"q\"", "u", "u", "v/w", "u"}))
          .Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

// gate_tall's shape: four low-cardinality categoricals and two small
// integer columns.
Table GateTallShapedTable(size_t rows, uint64_t seed) {
  const char* const regions[] = {"north", "south", "east", "west", "centre"};
  const char* const channels[] = {"web", "store", "phone"};
  Rng rng(seed);
  std::vector<std::string> region, channel, product, tier;
  std::vector<double> qty, band;
  for (size_t i = 0; i < rows; ++i) {
    region.push_back(regions[rng.UniformInt(0, 4)]);
    channel.push_back(channels[rng.UniformInt(0, 2)]);
    product.push_back("P" + std::to_string(rng.UniformInt(0, 11)));
    tier.push_back(rng.Bernoulli(0.5) ? "gold" : "silver");
    qty.push_back(static_cast<double>(rng.UniformInt(1, 20)));
    band.push_back(static_cast<double>(rng.UniformInt(0, 9)));
  }
  Result<Table> table = std::move(TableBuilder()
                                      .AddCategorical("Region", region)
                                      .AddCategorical("Channel", channel)
                                      .AddCategorical("Product", product)
                                      .AddCategorical("Tier", tier)
                                      .AddNumeric("Qty", std::move(qty))
                                      .AddNumeric("Band", std::move(band)))
                            .Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

std::string AppendRequest(const std::string& session, const Table& batch) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op").String("append_batch");
  json.Key("session").String(session);
  json.Key("batch");
  serve::WriteBatchJson(batch, json);
  json.EndObject();
  return json.str();
}

// Writes a DOM back as JSON text. With `noise`, some ASCII characters of
// every string and key go out as \u escapes (or "\/"), which decode to the
// same bytes, and whitespace appears between some tokens.
void WriteJsonText(const JsonValue& value, Rng* noise, std::string* out) {
  auto space = [&] {
    if (noise != nullptr && noise->Bernoulli(0.1)) {
      *out += " \n\t\r"[noise->UniformInt(0, 3)];
    }
  };
  auto string = [&](const std::string& text) {
    out->push_back('"');
    for (char c : text) {
      unsigned char byte = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out->push_back('\\');
        out->push_back(c);
      } else if (c == '/' && noise != nullptr && noise->Bernoulli(0.5)) {
        *out += "\\/";
      } else if (byte < 0x20 || (byte < 0x80 && noise != nullptr && noise->Bernoulli(0.2))) {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x", byte);
        *out += buffer;
      } else {
        out->push_back(c);
      }
    }
    out->push_back('"');
  };
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.bool_value ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      if (std::isfinite(value.number)) {
        JsonWriter number;
        number.DoubleFull(value.number);
        *out += number.str();
      } else {
        *out += value.number > 0 ? "1e400" : "-1e400";
      }
      break;
    case JsonValue::Kind::kString:
      string(value.string_value);
      break;
    case JsonValue::Kind::kArray:
      out->push_back('[');
      for (size_t i = 0; i < value.array.size(); ++i) {
        *out += i > 0 ? "," : "";
        space();
        WriteJsonText(value.array[i], noise, out);
        space();
      }
      out->push_back(']');
      break;
    case JsonValue::Kind::kObject:
      out->push_back('{');
      for (size_t i = 0; i < value.object.size(); ++i) {
        *out += i > 0 ? "," : "";
        space();
        string(value.object[i].first);
        space();
        out->push_back(':');
        space();
        WriteJsonText(value.object[i].second, noise, out);
        space();
      }
      out->push_back('}');
      break;
  }
}

void CollectNodes(JsonValue& value, bool containers, std::vector<JsonValue*>* out) {
  if (value.is_array() || value.is_object()) {
    if (containers) {
      out->push_back(&value);
    }
    for (JsonValue& element : value.array) {
      CollectNodes(element, containers, out);
    }
    for (auto& member : value.object) {
      CollectNodes(member.second, containers, out);
    }
  } else if (!containers) {
    out->push_back(&value);
  }
}

JsonValue RandomJsonValue(Rng& rng, int depth) {
  static const double numbers[] = {0,    -1,    1,      2,    2.5,   3,      -0.0, 1e300,
                                   -2,   1e15,  5e-324, 0.5,  12,    2147483648.0, 1e-300};
  static const char* const strings[] = {"nan",  "inf", "-inf", "NaN", "numeric", "categorical",
                                        "",     "a",   "x",    "c",   "Region",  "bogus"};
  static const char* const keys[] = {"op",   "session", "batch", "rows",  "columns", "name",
                                     "type", "values",  "codes", "dict",  "extra"};
  JsonValue value;
  switch (rng.UniformInt(0, depth >= 2 ? 3 : 5)) {
    case 0:
      break;
    case 1:
      value.kind = JsonValue::Kind::kBool;
      value.bool_value = rng.Bernoulli(0.5);
      break;
    case 2:
      value.kind = JsonValue::Kind::kNumber;
      value.number = numbers[rng.UniformInt(0, std::size(numbers) - 1)];
      break;
    case 3:
      value.kind = JsonValue::Kind::kString;
      value.string_value = strings[rng.UniformInt(0, std::size(strings) - 1)];
      break;
    case 4:
      value.kind = JsonValue::Kind::kArray;
      for (int64_t n = rng.UniformInt(0, 3); n > 0; --n) {
        value.array.push_back(RandomJsonValue(rng, depth + 1));
      }
      break;
    default:
      value.kind = JsonValue::Kind::kObject;
      for (int64_t n = rng.UniformInt(0, 2); n > 0; --n) {
        value.object.emplace_back(keys[rng.UniformInt(0, std::size(keys) - 1)],
                                  RandomJsonValue(rng, depth + 1));
      }
      break;
  }
  return value;
}

// One structural mutation of `request`, mostly inside its batch: reorder,
// duplicate, add, drop or replace members and elements, or give a leaf an
// edge value.
void MutateRequestDom(JsonValue& request, Rng& rng) {
  JsonValue* root = &request;
  for (auto& [key, value] : request.object) {
    if (key == "batch") {
      root = rng.Bernoulli(0.85) ? &value : root;
      break;
    }
  }
  int64_t kind = rng.UniformInt(0, 6);
  std::vector<JsonValue*> nodes;
  CollectNodes(*root, /*containers=*/kind < 5, &nodes);
  if (nodes.empty()) {
    return;
  }
  JsonValue& node = *nodes[rng.UniformInt(0, static_cast<int64_t>(nodes.size()) - 1)];
  const int64_t size = static_cast<int64_t>(node.is_object() ? node.object.size() : node.array.size());
  auto pick = [&](int64_t n) { return static_cast<size_t>(rng.UniformInt(0, n - 1)); };
  switch (kind) {
    case 0:  // reorder
      rng.Shuffle(node.object);
      rng.Shuffle(node.array);
      break;
    case 1:  // duplicate, before or after, sometimes with another value
      if (size > 0) {
        size_t from = pick(size);
        size_t to = pick(size + 1);
        if (node.is_object()) {
          auto copy = node.object[from];
          if (rng.Bernoulli(0.5)) {
            copy.second = RandomJsonValue(rng, 0);
          }
          node.object.insert(node.object.begin() + static_cast<ptrdiff_t>(to), copy);
        } else {
          JsonValue copy = node.array[from];
          node.array.insert(node.array.begin() + static_cast<ptrdiff_t>(to), copy);
        }
      }
      break;
    case 2:  // an unknown or extra member or element
      if (node.is_object()) {
        node.object.insert(node.object.begin() + static_cast<ptrdiff_t>(pick(size + 1)),
                           {rng.Bernoulli(0.5) ? "unknown" : "values", RandomJsonValue(rng, 0)});
      } else {
        node.array.insert(node.array.begin() + static_cast<ptrdiff_t>(pick(size + 1)),
                          RandomJsonValue(rng, 0));
      }
      break;
    case 3:  // a missing member or element
      if (size > 0 && node.is_object()) {
        node.object.erase(node.object.begin() + static_cast<ptrdiff_t>(pick(size)));
      } else if (size > 0) {
        node.array.erase(node.array.begin() + static_cast<ptrdiff_t>(pick(size)));
      }
      break;
    case 4:  // another kind of value, nested ones included
      if (size > 0 && node.is_object()) {
        node.object[pick(size)].second = RandomJsonValue(rng, 0);
      } else if (size > 0) {
        node.array[pick(size)] = RandomJsonValue(rng, 0);
      }
      break;
    default: {  // an edge leaf: a code or cell out of range, a token, a type name
      JsonValue edge = RandomJsonValue(rng, 2);
      if (node.is_number() && edge.is_number()) {
        node.number = rng.Bernoulli(0.5) ? edge.number : node.number + 1;
      } else {
        node = edge;
      }
      break;
    }
  }
}

// Byte-level mutations the DOM cannot express: flipped bits, and number
// spellings that are valid, out of range or not JSON at all.
void MutateRequestText(std::string& text, Rng& rng) {
  static const char* const tokens[] = {"1e400", "-1e400", "+5", "01", ".5", "5.", "-0",
                                       "1e-400", "1.2.3", "-", "NaN", "Infinity", "1e5-3"};
  if (rng.Bernoulli(0.5)) {
    for (int64_t n = rng.UniformInt(1, 3); n > 0; --n) {
      size_t at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      text[at] = static_cast<char>(text[at] ^ (1 << rng.UniformInt(0, 7)));
    }
    return;
  }
  std::vector<size_t> starts;
  for (size_t i = 1; i < text.size(); ++i) {
    bool digit = text[i] >= '0' && text[i] <= '9';
    if (digit && (text[i - 1] == ',' || text[i - 1] == '[' || text[i - 1] == ':')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) {
    return;
  }
  size_t at = starts[rng.UniformInt(0, static_cast<int64_t>(starts.size()) - 1)];
  size_t end = at;
  while (end < text.size() && text[end] != ',' && text[end] != ']' && text[end] != '}') {
    ++end;
  }
  text.replace(at, end - at, tokens[rng.UniformInt(0, std::size(tokens) - 1)]);
}

// What the daemon answers, reduced to the members the comparison reads.
struct Answer {
  bool ok = false;
  std::string code;
  std::string message;
  double records = -1;
};

Answer AnswerOf(const JsonValue& response) {
  Answer answer;
  answer.ok = ResponseOk(response);
  answer.code = ResponseCode(response);
  if (const JsonValue* message = response.Find("message"); message != nullptr) {
    answer.message = message->string_value;
  }
  if (const JsonValue* records = response.Find("records"); records != nullptr) {
    answer.records = records->number;
  }
  return answer;
}

Answer ErrorAnswer(const Status& status) {
  return {false, std::string(StatusCodeToString(status.code())), std::string(status.message()),
          -1};
}

// The answer the DOM decoder gave `payload` before the one-pass reader,
// worked out with the oracle and `mirrors` (a local StreamMonitor per open
// session, fed the same batches). Empty for an op other than append_batch.
std::optional<Answer> OracleAnswer(serve::Server& server,
                                   std::map<std::string, StreamMonitor>& mirrors,
                                   const std::string& payload) {
  Result<JsonValue> request = ParseJson(payload);
  if (!request.ok()) {
    return ErrorAnswer(InvalidArgumentError("malformed request JSON: " +
                                            std::string(request.status().message())));
  }
  const JsonValue* op = request->Find("op");
  if (op == nullptr || !op->is_string()) {
    return ErrorAnswer(InvalidArgumentError("request needs a string 'op' member"));
  }
  if (op->string_value != "append_batch") {
    return std::nullopt;
  }
  const JsonValue* session = request->Find("session");
  if (session == nullptr || !session->is_string()) {
    return ErrorAnswer(InvalidArgumentError("request needs a string 'session' member"));
  }
  const JsonValue* batch_json = request->Find("batch");
  if (batch_json == nullptr) {
    return ErrorAnswer(InvalidArgumentError("append_batch needs a batch object"));
  }
  Result<Table> batch = OracleParseBatchJson(*batch_json);
  if (!batch.ok()) {
    return ErrorAnswer(batch.status());
  }
  auto mirror = mirrors.find(session->string_value);
  if (mirror == mirrors.end()) {
    // The lookup failure, as the session table words it.
    JsonWriter query;
    query.BeginObject().Key("op").String("query").Key("session").String(session->string_value);
    query.EndObject();
    return AnswerOf(MustParse(server.HandleRequest(query.str())));
  }
  if (Status appended = mirror->second.Append(*batch); !appended.ok()) {
    return ErrorAnswer(appended);
  }
  return Answer{true, "", "", static_cast<double>(mirror->second.NumRecords())};
}

// Checks one payload three ways: the request reader against ParseJson and
// the oracle (syntax status, envelope, batch status or bits), then the
// daemon's answer against the oracle's. Returns whether the batch decoded.
bool ExpectDecodersAgree(serve::Server& server, std::map<std::string, StreamMonitor>& mirrors,
                         const std::string& payload) {
  const std::string context = "payload: " + payload;
  Result<JsonValue> dom = ParseJson(payload);
  Result<serve::RequestJson> read = serve::ReadRequestJson(payload);
  EXPECT_EQ(read.status().code(), dom.status().code()) << context;
  EXPECT_EQ(read.status().message(), dom.status().message()) << context;
  bool decoded = false;
  if (dom.ok() && read.ok()) {
    JsonValue envelope = *dom;
    std::erase_if(envelope.object, [](const auto& member) { return member.first == "batch"; });
    std::string want_envelope;
    std::string got_envelope;
    WriteJsonText(envelope, nullptr, &want_envelope);
    WriteJsonText(read->envelope, nullptr, &got_envelope);
    EXPECT_EQ(got_envelope, want_envelope) << context;
    const JsonValue* batch_json = dom->Find("batch");
    Result<Table> want = batch_json == nullptr
                             ? Result<Table>(InvalidArgumentError("append_batch needs a batch object"))
                             : OracleParseBatchJson(*batch_json);
    EXPECT_EQ(read->batch.status().code(), want.status().code()) << context;
    EXPECT_EQ(read->batch.status().message(), want.status().message()) << context;
    if (want.ok() && read->batch.ok()) {
      ExpectSameTableBits(*read->batch, *want, context);
      decoded = true;
    }
  }
  std::optional<Answer> want = OracleAnswer(server, mirrors, payload);
  Answer got = AnswerOf(MustParse(server.HandleRequest(payload)));
  if (want.has_value()) {
    EXPECT_EQ(got.ok, want->ok) << context;
    EXPECT_EQ(got.code, want->code) << context;
    EXPECT_EQ(got.message, want->message) << context;
    EXPECT_EQ(got.records, want->records) << context;
  }
  return decoded;
}

TEST(ServeDecodeTest, OnePassDecoderAnswersLikeTheDomDecoder) {
  serve::Server server;
  std::map<std::string, StreamMonitor> mirrors;
  std::vector<std::string> bases;
  auto open = [&](const Table& table, const std::vector<ApproximateSc>& constraints) {
    JsonWriter json;
    json.BeginObject();
    json.Key("op").String("open_session");
    json.Key("schema");
    serve::WriteSchemaJson(table.schema(), json);
    json.Key("constraints").BeginArray();
    for (const ApproximateSc& asc : constraints) {
      json.BeginObject().Key("sc").String(asc.sc.ToString()).Key("alpha").DoubleFull(asc.alpha);
      json.EndObject();
    }
    json.EndArray().EndObject();
    JsonValue opened = MustParse(server.HandleRequest(json.str()));
    ASSERT_TRUE(ResponseOk(opened)) << json.str();
    std::string id = opened.Find("session")->string_value;
    Result<Table> prototype = serve::EmptyTableForSchema(table.schema());
    ASSERT_TRUE(prototype.ok());
    Result<StreamMonitor> mirror = StreamMonitor::Create(*prototype, constraints);
    ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
    mirrors.emplace(id, std::move(mirror).value());
    bases.push_back(AppendRequest(id, table));
  };
  ASSERT_NO_FATAL_FAILURE(open(CarsTable(), {MustConstraint("Price !_||_ Mileage", 0.3),
                                             MustConstraint("Model _||_ Color", 0.05)}));
  ASSERT_NO_FATAL_FAILURE(open(AwkwardTable(), {MustConstraint("x !_||_ y", 0.05),
                                                MustConstraint("c _||_ d", 0.05)}));
  ASSERT_NO_FATAL_FAILURE(
      open(GateTallShapedTable(64, 9), {MustConstraint("Region _||_ Channel", 0.01),
                                        MustConstraint("Tier _||_ Product | Region", 0.01),
                                        MustConstraint("Qty _||_ Band", 0.05)}));

  // Every base request, then each cut at every byte offset.
  for (const std::string& base : bases) {
    EXPECT_TRUE(ExpectDecodersAgree(server, mirrors, base));
    for (size_t size = 0; size < base.size(); ++size) {
      ExpectDecodersAgree(server, mirrors, base.substr(0, size));
    }
  }

  // Corners the random mutations seldom reach: the rows member, the depth
  // limit inside a cell array, repeated keys and requests of other shapes.
  const std::string& cars = bases[0];
  const std::string head = cars.substr(0, cars.find(R"("batch":)") + 8);
  const std::string columns = cars.substr(cars.find(R"("columns":)"));  // to the end
  std::vector<std::string> corners = {
      "[]", "5", R"("append_batch")", R"({"op":"append_batch"})",
      std::string(300, '['),
      head + R"({"rows":2.5,)" + columns,
      head + R"({"rows":-1,)" + columns,
      head + R"({"rows":1e300,)" + columns,
      head + R"({"rows":"12",)" + columns,
      head + R"({"rows":13,)" + columns,
      head + R"({"rows":12,"rows":13,)" + columns,
      head + R"({"rows":13,"rows":12,)" + columns,
      head + R"({"columns":7,)" + columns,
      head + R"({"columns":[],)" + columns,
      head + R"({)" + columns.substr(0, columns.size() - 2) + R"(,"columns":7}})",
      cars.substr(0, cars.size() - 1) + R"(,"batch":{"columns":7}})",
      R"({"batch":{"columns":7},)" + cars.substr(1),
      head + R"({"columns":[{"name":"Model","name":5,"type":"categorical","codes":[],"dict":[]}]}})",
      head + R"({"columns":[{"name":5,"name":"Model","type":"categorical","codes":[],"dict":[]}]}})",
      head + R"({"columns":[{"type":"numeric","type":"categorical","name":"Price","values":[1]}]}})",
      head + R"({"columns":[{"name":"Model","type":"categorical","codes":[0,-1,0],"dict":["a","a"]}]}})",
      head + R"({"columns":[{"name":"Model","type":"categorical","codes":[1,"x"],"dict":["a"]}]}})",
      head + R"({"columns":[{"name":"Model","type":"categorical","codes":["x",1],"dict":["a"]}]}})",
      head + R"({"columns":[{"name":"Model","type":"categorical","codes":[2147483648],"dict":[1]}]}})",
  };
  for (size_t depth = 250; depth <= 256; ++depth) {
    std::string nested;
    for (size_t d = 0; d < depth; ++d) {
      nested += d % 2 == 0 ? "[ " : R"({"a": )";
    }
    for (size_t d = depth; d > 0; --d) {
      nested += d % 2 == 1 ? "]" : "}";
    }
    corners.push_back(head + R"({"columns":[{"name":"Price","type":"numeric","values":[)" +
                      nested + "]}]}}");
  }
  for (const std::string& corner : corners) {
    ExpectDecodersAgree(server, mirrors, corner);
  }

  Rng rng(20261019);
  int decoded = 0;
  const int kMutations = 2400;
  for (int iteration = 0; iteration < kMutations; ++iteration) {
    const std::string& base = bases[static_cast<size_t>(iteration) % bases.size()];
    JsonValue request = MustParse(base);
    for (int64_t n = rng.UniformInt(1, 3); n > 0; --n) {
      MutateRequestDom(request, rng);
    }
    std::string payload;
    WriteJsonText(request, rng.Bernoulli(0.3) ? &rng : nullptr, &payload);
    if (rng.Bernoulli(0.25)) {
      MutateRequestText(payload, rng);
    }
    decoded += ExpectDecodersAgree(server, mirrors, payload) ? 1 : 0;
  }
  // Both outcomes are exercised.
  EXPECT_GT(decoded, kMutations / 10);
  EXPECT_LT(decoded, kMutations - kMutations / 10);

  // The sessions hold what the mirrors hold, to the bit.
  for (auto& [id, mirror] : mirrors) {
    JsonValue queried =
        MustParse(server.HandleRequest(R"({"op":"query","session":")" + id + R"("})"));
    ASSERT_TRUE(ResponseOk(queried));
    std::vector<StreamMonitor::ConstraintState> states = mirror.States();
    const JsonValue* remote = queried.Find("states");
    ASSERT_EQ(remote->array.size(), states.size());
    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(remote->array[i].Find("p_value")->number),
                std::bit_cast<uint64_t>(states[i].p_value));
      EXPECT_EQ(remote->array[i].Find("line")->string_value,
                serve::MonitorStateLine(states[i]));
    }
    EXPECT_EQ(queried.Find("records")->number, static_cast<double>(mirror.NumRecords()));
  }
}

TEST(ServeDecodeTest, AppendErrorsKeepTheirOrder) {
  serve::Server server;
  JsonValue opened = MustParse(server.HandleRequest(
      std::string(R"({"op":"open_session","schema":)") + [] {
        JsonWriter json;
        serve::WriteSchemaJson(CarsTable().schema(), json);
        return json.str();
      }() + R"(,"constraints":[{"sc":"Model _||_ Color"}]})"));
  ASSERT_TRUE(ResponseOk(opened));
  const std::string id = opened.Find("session")->string_value;
  struct Case {
    std::string payload;
    std::string message;
  };
  const std::string bad_batch = R"("batch":{"columns":7})";
  const Case cases[] = {
      // The session member is checked before the batch, and the batch
      // before the lookup, wherever the members stand.
      {R"({"op":"append_batch",)" + bad_batch + "}", "request needs a string 'session' member"},
      {R"({)" + bad_batch + R"(,"op":"append_batch","session":"nope"})",
       "batch is missing its columns array"},
      {R"({"op":"append_batch","session":"nope"})", "append_batch needs a batch object"},
      {R"({"op":"append_batch","session":"nope","batch":{"columns":[]}})",
       "unknown session 'nope'"},
      // A syntax error anywhere, the batch included, is the request's.
      {R"({"op":"append_batch","session":")" + id + R"(","batch":{"columns":[1,]}})",
       "malformed request JSON: JSON parse error at offset " +
           std::to_string(std::string(R"({"op":"append_batch","session":"",)").size() +
                          id.size() + std::string(R"("batch":{"columns":[1,)").size()) +
           ": invalid value"},
      // Other ops ignore a batch, even one that breaks every rule.
      {R"({"batch":[],"op":"query","session":"nope"})", "unknown session 'nope'"},
  };
  for (const Case& c : cases) {
    JsonValue response = MustParse(server.HandleRequest(c.payload));
    EXPECT_FALSE(ResponseOk(response)) << c.payload;
    EXPECT_EQ(response.Find("message")->string_value, c.message) << c.payload;
  }
}

// ---------------------------------------------------------------------------
// Session table policy.

TEST(ServeSessionTest, BackpressureAtMaxSessions) {
  serve::SessionLimits limits;
  limits.max_sessions = 1;
  serve::SessionTable table(limits);
  Table cars = CarsTable();
  std::vector<ApproximateSc> constraints = {MustConstraint("Model _||_ Color", 0.05)};

  Result<std::string> first = table.Open(cars.schema(), constraints, {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<std::string> second = table.Open(cars.schema(), constraints, {});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  // Backpressure clears as soon as a slot frees up.
  ASSERT_TRUE(table.Close(*first).ok());
  Result<std::string> third = table.Open(cars.schema(), constraints, {});
  EXPECT_TRUE(third.ok()) << third.status().ToString();
  // Session ids are never reused.
  EXPECT_NE(*third, *first);
}

TEST(ServeSessionTest, IdleSessionsAreEvicted) {
  serve::SessionLimits limits;
  limits.idle_evict_millis = 1;
  serve::SessionTable table(limits);
  Table cars = CarsTable();
  Result<std::string> id =
      table.Open(cars.schema(), {MustConstraint("Model _||_ Color", 0.05)}, {});
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(table.EvictIdle(), 1u);
  EXPECT_EQ(table.size(), 0u);
  Status gone = table.With(*id, [](StreamMonitor&) { return OkStatus(); });
  EXPECT_EQ(gone.code(), StatusCode::kNotFound);
}

// Regression: a session whose handler runs longer than the idle limit used
// to be evictable mid-request — the sweep compared last_used (stamped on
// entry) against an aggressive limit and destroyed the monitor under the
// handler's feet. An in-flight request must pin its session.
TEST(ServeSessionTest, InFlightRequestPinsSessionAgainstEviction) {
  serve::SessionLimits limits;
  limits.idle_evict_millis = 1;  // aggressive: any observable pause is "idle"
  serve::SessionTable table(limits);
  Table cars = CarsTable();
  Result<std::string> id =
      table.Open(cars.schema(), {MustConstraint("Model _||_ Color", 0.05)}, {});
  ASSERT_TRUE(id.ok());

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread request([&] {
    Status slow = table.With(*id, [&](StreamMonitor&) {
      entered = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return OkStatus();
    });
    EXPECT_TRUE(slow.ok()) << slow.ToString();
  });
  while (!entered) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The handler is now parked well past the idle limit; sweeps must skip it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(table.EvictIdle(), 0u);
  EXPECT_EQ(table.size(), 1u);
  release = true;
  request.join();

  // Completion restamps the idle clock, so the session is immediately
  // usable — and only a genuine idle stretch evicts it.
  Status touch = table.With(*id, [](StreamMonitor&) { return OkStatus(); });
  EXPECT_TRUE(touch.ok()) << touch.ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(table.EvictIdle(), 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(ServeSessionTest, ZeroIdleLimitDisablesEviction) {
  serve::SessionLimits limits;
  limits.idle_evict_millis = 0;
  serve::SessionTable table(limits);
  Table cars = CarsTable();
  ASSERT_TRUE(table.Open(cars.schema(), {MustConstraint("Model _||_ Color", 0.05)}, {})
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(table.EvictIdle(), 0u);
  EXPECT_EQ(table.size(), 1u);
}

// ---------------------------------------------------------------------------
// Client/server over real sockets.

TEST(ServeClientTest, EndToEndRoundTrip) {
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());

  Result<serve::Client> client = serve::Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<JsonValue> pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();

  Table table = CarsTable();
  std::vector<ApproximateSc> constraints = {MustConstraint("Price !_||_ Mileage", 0.3)};
  Result<std::string> session = client->OpenSession(table.schema(), constraints, 0);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(server.NumSessions(), 1u);

  Result<size_t> records = client->AppendBatch(*session, table);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(*records, table.NumRows());

  Result<JsonValue> state = client->Query(*session);
  ASSERT_TRUE(state.ok());
  const JsonValue* states = state->Find("states");
  ASSERT_NE(states, nullptr);
  ASSERT_EQ(states->array.size(), 1u);

  // Server-side errors come back as the Status the server produced.
  Result<JsonValue> missing = client->Query("s999");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(client->CloseSession(*session).ok());
  EXPECT_EQ(server.NumSessions(), 0u);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ServeClientTest, RecordsCountThatIsNotACountIsATypedError) {
  // A fake daemon answers each append with one crafted frame. The count
  // is a double on the wire: -1 and 1e300 have no size_t, and 2.5 is not a
  // count; none may be cast.
  Result<TcpListener> listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const std::string replies[] = {R"({"ok":true,"records":-1})", R"({"ok":true,"records":1e300})",
                                 R"({"ok":true,"records":2.5})", R"({"ok":true,"records":12})"};
  // A jthread joins on every exit, a failed ASSERT's early return too: the
  // client below closes its connection first, which ends the reply loop,
  // and the accept deadline ends a daemon no client ever dialled.
  std::jthread daemon([&] {
    Result<TcpConn> conn = listener->AcceptWithTimeout(10000);
    if (!conn.ok()) {
      return;
    }
    for (const std::string& reply : replies) {
      if (!serve::ReadFrame(*conn).ok() || !serve::WriteFrame(*conn, reply).ok()) {
        return;
      }
    }
  });
  Result<serve::Client> client = serve::Client::Connect(listener->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Table table = CarsTable();
  for (int i = 0; i < 3; ++i) {
    Result<size_t> records = client->AppendBatch("s1", table);
    ASSERT_FALSE(records.ok()) << replies[i];
    EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument) << replies[i];
  }
  Result<size_t> records = client->AppendBatch("s1", table);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(*records, 12u);
}

TEST(ServeClientTest, StopDropsLiveConnectionsAndSessions) {
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  Result<serve::Client> client = serve::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  Table table = CarsTable();
  Result<std::string> session =
      client->OpenSession(table.schema(), {MustConstraint("Model _||_ Color", 0.05)}, 0);
  ASSERT_TRUE(session.ok());

  server.Stop();
  EXPECT_EQ(server.NumSessions(), 0u);
  // The force-closed connection surfaces as an error, not a hang.
  Result<JsonValue> after = client->Ping();
  EXPECT_FALSE(after.ok());

  // The server restarts cleanly on a fresh port.
  ASSERT_TRUE(server.Start().ok());
  Result<serve::Client> reconnect = serve::Client::Connect(server.port());
  ASSERT_TRUE(reconnect.ok());
  EXPECT_TRUE(reconnect->Ping().ok());
  server.Stop();
}

TEST(ServeClientTest, RemoteCheckEqualsInProcessLine) {
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  Result<serve::Client> client = serve::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::string csv_text = "A,B\n1,2\n2,4\n3,6\n4,8\n5,10\n6,12\n7,14\n8,16\n";
  ApproximateSc asc = MustConstraint("A !_||_ B", 0.3);
  Result<Table> parsed = csv::ReadString(csv_text);
  ASSERT_TRUE(parsed.ok());
  Scoded local(std::move(parsed).value());
  Result<ViolationReport> expected = local.CheckViolation(asc);
  ASSERT_TRUE(expected.ok());

  Result<JsonValue> response = client->Check(csv_text, "A !_||_ B", 0.3);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->Find("line")->string_value, serve::CheckResultLine(asc, *expected));
  EXPECT_EQ(response->Find("p_value")->number, expected->p_value);
  server.Stop();
}

// ---------------------------------------------------------------------------
// CLI byte-parity: `scoded client ...` against an in-process daemon must
// print exactly what the local commands print, at 1 and 4 threads.

#if defined(SCODED_CLI_BIN) && defined(SCODED_FIXTURE_CSV)

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CliRun {
  int exit_code = -1;
  std::string stdout_text;
};

CliRun RunCli(const std::string& args, const std::string& tag) {
  std::string out_path = ::testing::TempDir() + "/serve_cli_" + tag + ".out";
  std::string command = std::string(SCODED_CLI_BIN) + " " + args + " > " + out_path;
  int rc = std::system(command.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  run.stdout_text = ReadWholeFile(out_path);
  return run;
}

TEST(ServeCliParityTest, ClientCheckIsByteIdenticalToLocalCheck) {
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  std::string port = std::to_string(server.port());
  std::string check_args = "--csv " SCODED_FIXTURE_CSV " --sc \"Model !_||_ Price\" --alpha 0.3";

  CliRun local = RunCli("check " + check_args, "check_local");
  CliRun local_mt = RunCli("check " + check_args + " --threads 4", "check_local_mt");
  CliRun remote = RunCli("client check --port " + port + " " + check_args, "check_remote");

  // 0 = holds, 2 = violated; the remote verdict must agree either way.
  EXPECT_TRUE(local.exit_code == 0 || local.exit_code == 2) << local.exit_code;
  EXPECT_EQ(remote.exit_code, local.exit_code);
  EXPECT_EQ(remote.stdout_text, local.stdout_text);
  EXPECT_EQ(remote.stdout_text, local_mt.stdout_text);
  EXPECT_FALSE(remote.stdout_text.empty());
  server.Stop();
}

TEST(ServeCliParityTest, ClientMonitorIsByteIdenticalToLocalMonitor) {
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  std::string port = std::to_string(server.port());
  std::string monitor_args =
      "--csv " SCODED_FIXTURE_CSV
      " --sc \"Price !_||_ Mileage\" --sc \"Model _||_ Color\" --alpha 0.3 --batch 4";

  CliRun local = RunCli("monitor " + monitor_args, "monitor_local");
  CliRun local_mt = RunCli("monitor " + monitor_args + " --threads 4", "monitor_local_mt");
  CliRun remote =
      RunCli("client monitor --port " + port + " " + monitor_args, "monitor_remote");

  EXPECT_EQ(remote.exit_code, local.exit_code);
  EXPECT_EQ(remote.stdout_text, local.stdout_text);
  EXPECT_EQ(remote.stdout_text, local_mt.stdout_text);
  EXPECT_FALSE(remote.stdout_text.empty());
  server.Stop();
}

#endif  // SCODED_CLI_BIN && SCODED_FIXTURE_CSV

}  // namespace
}  // namespace scoded
