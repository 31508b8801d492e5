// The scoded serve daemon: wire framing, request routing, session
// lifecycle (backpressure, idle eviction), client/server round trips,
// and the parity contract — a streamed session's statistics are
// bit-identical to a local monitor over the same batches, and a remote
// check's verdict line is byte-identical to `scoded check`.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <fstream>
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
  Result<Table> back = serve::ParseBatchJson(MustParse(json.str()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
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

TEST(WireTest, NonIntegralOrOutOfRangeNumbersAreInvalidArgument) {
  // Wire numbers are doubles: each must be an exact integer in range
  // before it is cast.
  auto batch = [](const std::string& rows, const std::string& code) {
    return MustParse(R"({"rows":)" + rows +
                     R"(,"columns":[{"name":"c","type":"categorical","codes":[0,)" + code +
                     R"(],"dict":["a","b"]}]})");
  };
  EXPECT_TRUE(serve::ParseBatchJson(batch("2", "1")).ok());
  EXPECT_EQ(serve::ParseBatchJson(batch("2", "1e300")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::ParseBatchJson(batch("2", "0.5")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::ParseBatchJson(batch("-1", "1")).status().code(),
            StatusCode::kInvalidArgument);

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
