// Tests for the observability layer: metrics registry, tracer, logging,
// the JSON parser they rely on, and an end-to-end check that the CLI's
// --stats/--trace-out surface real numbers.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scoded {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, CounterBasics) {
  obs::Metrics metrics;
  obs::Counter* counter = metrics.FindOrCreateCounter("test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Value(), 0);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42);
  // Same name returns the same counter.
  EXPECT_EQ(metrics.FindOrCreateCounter("test.counter"), counter);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0);
}

TEST(MetricsTest, GaugeStoresDoubles) {
  obs::Metrics metrics;
  obs::Gauge* gauge = metrics.FindOrCreateGauge("test.gauge");
  EXPECT_EQ(gauge->Value(), 0.0);
  gauge->Set(3.25);
  EXPECT_EQ(gauge->Value(), 3.25);
  gauge->Set(-1e300);
  EXPECT_EQ(gauge->Value(), -1e300);
}

TEST(MetricsTest, ConcurrentCountersAreExact) {
  obs::Metrics metrics;
  obs::Counter* counter = metrics.FindOrCreateCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) {
        counter->Add();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kIncrements);
}

TEST(MetricsTest, ConcurrentHistogramKeepsEveryObservation) {
  obs::Metrics metrics;
  obs::Histogram* histogram = metrics.FindOrCreateHistogram("test.histogram");
  constexpr int kThreads = 4;
  constexpr int kObservations = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kObservations; ++i) {
        histogram->Observe(i % 1000);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram->Count(), int64_t{kThreads} * kObservations);
  // Σ (i % 1000) over one thread's loop, times kThreads.
  int64_t one_thread = 0;
  for (int i = 0; i < kObservations; ++i) {
    one_thread += i % 1000;
  }
  EXPECT_EQ(histogram->Sum(), kThreads * one_thread);
}

TEST(MetricsTest, HistogramQuantilesAreBucketUpperBounds) {
  obs::Metrics metrics;
  obs::Histogram* histogram = metrics.FindOrCreateHistogram("test.quantiles");
  for (int i = 0; i < 100; ++i) {
    histogram->Observe(10);  // bucket [8, 16) -> upper bound 15
  }
  EXPECT_EQ(histogram->ApproxQuantile(0.5), 15);
  EXPECT_EQ(histogram->ApproxQuantile(0.99), 15);
}

TEST(MetricsTest, QuantilesAreWithinTheLog2BucketBound) {
  // Log2 bucketing guarantees an estimate in [q, 2q): the reported value is
  // the upper bound of the bucket holding the true quantile, and buckets
  // are power-of-two wide. Check across a uniform 1..1024 population.
  obs::Metrics metrics;
  obs::Histogram* histogram = metrics.FindOrCreateHistogram("test.accuracy");
  for (int64_t v = 1; v <= 1024; ++v) {
    histogram->Observe(v);
  }
  for (double q : {0.50, 0.95, 0.99}) {
    int64_t truth = static_cast<int64_t>(q * 1024);
    int64_t estimate = histogram->ApproxQuantile(q);
    EXPECT_GE(estimate, truth) << "q=" << q;
    EXPECT_LE(estimate, 2 * truth) << "q=" << q;
  }
  // Degenerate quantiles stay in range.
  EXPECT_GE(histogram->ApproxQuantile(0.0), 1);
  EXPECT_LE(histogram->ApproxQuantile(1.0), 2047);
}

TEST(MetricsTest, SnapshotDuringConcurrentObservesStaysConsistent) {
  // Readers snapshot while writers observe; every snapshot must be valid
  // JSON and counts must be monotone non-decreasing across snapshots.
  obs::Metrics metrics;
  obs::Histogram* histogram = metrics.FindOrCreateHistogram("test.race");
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  constexpr int kMinObservations = 10000;  // guaranteed even if snapshots win the race
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([histogram, &stop] {
      int64_t v = 1;
      int done = 0;
      while (done < kMinObservations || !stop.load(std::memory_order_relaxed)) {
        histogram->Observe(v);
        v = v % 4096 + 1;
        ++done;
      }
    });
  }
  double last_count = 0.0;
  for (int i = 0; i < 200; ++i) {
    Result<JsonValue> parsed = ParseJson(metrics.SnapshotJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* hist = parsed->Find("histograms")->Find("test.race");
    ASSERT_NE(hist, nullptr);
    double count = hist->Find("count")->number;
    EXPECT_GE(count, last_count);
    last_count = count;
  }
  stop.store(true);
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_GE(histogram->Count(), int64_t{kWriters} * kMinObservations);
}

TEST(MetricsTest, SnapshotJsonIsValidAndComplete) {
  obs::Metrics metrics;
  metrics.FindOrCreateCounter("a.count")->Add(7);
  metrics.FindOrCreateGauge("b.gauge")->Set(2.5);
  metrics.FindOrCreateHistogram("c.hist")->Observe(100);
  Result<JsonValue> parsed = ParseJson(metrics.SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* a = counters->Find("a.count");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->number, 7.0);
  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("b.gauge")->number, 2.5);
  const JsonValue* hist = parsed->Find("histograms");
  ASSERT_NE(hist, nullptr);
  const JsonValue* c = hist->Find("c.hist");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Find("count")->number, 1.0);
  EXPECT_EQ(c->Find("sum")->number, 100.0);
}

// ----------------------------------------------------------------- tracer

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  {
    obs::ScopedSpan span("should_not_appear");
    span.Arg("key", int64_t{1});
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.NumEvents(), 0u);
  EXPECT_EQ(tracer.ToJson(), "[]");
}

// With SCODED_OBS_DISABLED, ScopedSpan is the compile-to-nothing shell:
// no events are ever produced, so the recording tests don't apply.
#if !defined(SCODED_OBS_DISABLED)

TEST(TracerTest, NestedSpansProduceWellFormedTraceJson) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    obs::ScopedSpan outer("outer");
    outer.Arg("n", int64_t{42}).Arg("label", "hello \"quoted\"").Arg("ratio", 0.5);
    {
      obs::ScopedSpan inner("inner");
    }
  }
  tracer.Disable();
  ASSERT_EQ(tracer.NumEvents(), 2u);

  Result<JsonValue> parsed = ParseJson(tracer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array.size(), 2u);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& event : parsed->array) {
    ASSERT_TRUE(event.is_object());
    EXPECT_EQ(event.Find("ph")->string_value, "X");
    ASSERT_TRUE(event.Find("ts")->is_number());
    ASSERT_TRUE(event.Find("dur")->is_number());
    if (event.Find("name")->string_value == "outer") {
      outer = &event;
    } else if (event.Find("name")->string_value == "inner") {
      inner = &event;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Nesting: the inner span's interval is contained in the outer's.
  double outer_start = outer->Find("ts")->number;
  double outer_end = outer_start + outer->Find("dur")->number;
  double inner_start = inner->Find("ts")->number;
  double inner_end = inner_start + inner->Find("dur")->number;
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);
  // Arguments survive the round trip.
  const JsonValue* args = outer->Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("n")->number, 42.0);
  EXPECT_EQ(args->Find("label")->string_value, "hello \"quoted\"");
  EXPECT_EQ(args->Find("ratio")->number, 0.5);
  tracer.Clear();
}

TEST(TracerTest, SpanCapturesEnableStateAtConstruction) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Disable();
  {
    obs::ScopedSpan span("constructed_disabled");
    tracer.Enable();  // too late for this span
  }
  tracer.Disable();
  EXPECT_EQ(tracer.NumEvents(), 0u);
}

#endif  // !SCODED_OBS_DISABLED

// ------------------------------------------------------------ JSON parser

TEST(JsonParserTest, ParsesAllValueKinds) {
  Result<JsonValue> parsed =
      ParseJson(R"({"a": 1.5, "b": [true, false, null], "c": "x\ny", "d": {"e": -2e3}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("a")->number, 1.5);
  const JsonValue* b = parsed->Find("b");
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].bool_value);
  EXPECT_FALSE(b->array[1].bool_value);
  EXPECT_TRUE(b->array[2].is_null());
  EXPECT_EQ(parsed->Find("c")->string_value, "x\ny");
  EXPECT_EQ(parsed->Find("d")->Find("e")->number, -2000.0);
}

TEST(JsonParserTest, UnicodeEscapesDecodeToUtf8) {
  Result<JsonValue> parsed = ParseJson(R"("Aé€")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value, "A\xC3\xA9\xE2\x82\xAC");  // A é €
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("1.2.3").ok());
}

TEST(JsonParserTest, NestingLimitIsReportedWhereTheValueWouldStart) {
  // A value inside 257 containers is too deep. The offset is where the
  // value would start: after a member's colon, or after the whitespace
  // behind an array's opening bracket.
  std::string text;
  for (int depth = 0; depth < 257; ++depth) {
    text += R"({"a": )";
  }
  Result<JsonValue> parsed = ParseJson(text + "1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "JSON parse error at offset 1541: nesting too deep");
  std::string array(257, '[');
  parsed = ParseJson(array + " 1");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "JSON parse error at offset 258: nesting too deep");
  // 256 containers, or 257 with nothing in the innermost, are fine.
  EXPECT_TRUE(ParseJson(std::string(256, '[') + "1" + std::string(256, ']')).ok());
  EXPECT_TRUE(ParseJson(array + std::string(257, ']')).ok());
}

TEST(JsonParserTest, WriterOutputParsesBack) {
  JsonWriter json;
  json.BeginObject();
  json.Key("esc").String("tab\there \"and\" backslash\\");
  json.Key("nums").BeginArray().Int(-5).Double(0.125).Uint(1u << 30).EndArray();
  json.EndObject();
  Result<JsonValue> parsed = ParseJson(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("esc")->string_value, "tab\there \"and\" backslash\\");
  EXPECT_EQ(parsed->Find("nums")->array[2].number, static_cast<double>(1u << 30));
}

TEST(JsonParserTest, SurrogatePairsCombineIntoOneCodePoint) {
  // U+1F600 (the grinning-face emoji) travels as the surrogate pair
  // \ud83d\ude00 and must decode to one 4-byte UTF-8 sequence, never to
  // two 3-byte CESU-8 halves.
  Result<JsonValue> parsed = ParseJson(R"("\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string_value, "\xF0\x9F\x98\x80");

  // Mixed BMP and astral content.
  parsed = ParseJson(R"("x\ud83d\ude00y\u00e9")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value, "x\xF0\x9F\x98\x80y\xC3\xA9");
}

TEST(JsonParserTest, LoneSurrogatesAreRejected) {
  // A high surrogate with no continuation, followed by non-escape text.
  EXPECT_FALSE(ParseJson(R"("\ud83dxyz")").ok());
  // A high surrogate at end of string.
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());
  // A high surrogate followed by a non-surrogate escape.
  EXPECT_FALSE(ParseJson(R"("\ud83d\u0041")").ok());
  // Two high surrogates in a row.
  EXPECT_FALSE(ParseJson(R"("\ud83d\ud83d")").ok());
  // A bare low surrogate.
  EXPECT_FALSE(ParseJson(R"("\ude00")").ok());
}

TEST(JsonParserTest, AsciiWriterEscapesNonBmpAsSurrogatePairs) {
  JsonWriter json;
  json.SetAsciiOutput(true);
  json.String("A\xC3\xA9\xF0\x9F\x98\x80");  // "Aé😀"
  EXPECT_EQ(json.str(), R"("A\u00e9\ud83d\ude00")");

  // The escaped form parses back to the original UTF-8 bytes: a full
  // writer→parser round trip through the astral plane.
  Result<JsonValue> parsed = ParseJson(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string_value, "A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, AsciiWriterReplacesMalformedUtf8) {
  JsonWriter json;
  json.SetAsciiOutput(true);
  // A lone continuation byte, an overlong encoding of '/', and a
  // truncated 4-byte lead: every malformed byte becomes U+FFFD instead of
  // leaking corrupt output (the overlong C0 AF is two bad bytes, as is the
  // truncated F0 9F).
  json.String("a\x80" "b\xC0\xAF" "c\xF0\x9F");
  Result<JsonValue> parsed = ParseJson(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << " in " << json.str();
  EXPECT_EQ(parsed->string_value,
            "a\xEF\xBF\xBD"
            "b\xEF\xBF\xBD\xEF\xBF\xBD"
            "c\xEF\xBF\xBD\xEF\xBF\xBD");
}

TEST(JsonParserTest, NonAsciiPassesThroughRawByDefault) {
  JsonWriter json;
  json.String("Aé😀");
  EXPECT_EQ(json.str(), "\"Aé😀\"");
  Result<JsonValue> parsed = ParseJson(json.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value, "Aé😀");
}

TEST(JsonParserTest, DoubleFullRoundTripsExactValues) {
  const double values[] = {0.1, 1.0 / 3.0, 5e-324, 1e308, -0.0, 12345.6789};
  for (double value : values) {
    JsonWriter json;
    json.DoubleFull(value);
    Result<JsonValue> parsed = ParseJson(json.str());
    ASSERT_TRUE(parsed.ok()) << json.str();
    EXPECT_EQ(parsed->number, value) << json.str();
    EXPECT_EQ(std::signbit(parsed->number), std::signbit(value)) << json.str();
  }
}

// JsonWriter's numbers are exactly the printf / to_string text, and
// ParseJson's are exactly strtod's value, whatever conversion runs inside.

std::string Printf(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

TEST(JsonNumberTest, WriterNumbersAreThePrintfText) {
  std::vector<double> values = {0.0,
                                -0.0,
                                5e-324,
                                DBL_MAX,
                                1e15 - 1,
                                -(1e15 - 1),
                                1e15,
                                -1e15,
                                1e12 - 1,
                                -1e12,
                                9007199254740992.0 - 1,
                                9007199254740992.0,
                                9007199254740992.0 + 2,
                                1e17,
                                0.1,
                                1.0 / 3.0,
                                123456789012.5,
                                41000};
  Rng rng(1234567);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(static_cast<uint64_t>(rng.engine()())));
  }
  for (int i = 0; i < 20000; ++i) {
    // Integers around both integral bounds, and short decimals.
    values.push_back(static_cast<double>(rng.UniformInt(-2000000000000000, 2000000000000000)));
    values.push_back(static_cast<double>(rng.UniformInt(-2000000000000, 2000000000000)));
    values.push_back(static_cast<double>(rng.UniformInt(-100000, 100000)) / 100.0);
  }
  int mismatches = 0;
  for (double value : values) {
    if (!std::isfinite(value)) {
      continue;
    }
    JsonWriter full;
    full.DoubleFull(value);
    JsonWriter general;
    general.Double(value);
    if (full.str() != Printf("%.17g", value) || general.str() != Printf("%.12g", value)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << Printf("%a", value) << ": " << full.str() << " / " << general.str();
      }
    }
  }
  EXPECT_EQ(mismatches, 0);

  std::vector<int64_t> integers = {0, -1, INT64_MIN, INT64_MAX, 999999999999999};
  for (int i = 0; i < 1000; ++i) {
    integers.push_back(static_cast<int64_t>(rng.engine()()));
  }
  for (int64_t value : integers) {
    JsonWriter json;
    json.Int(value).Uint(static_cast<uint64_t>(value));
    EXPECT_EQ(json.str(),
              std::to_string(value) + "," + std::to_string(static_cast<uint64_t>(value)));
  }
}

TEST(JsonNumberTest, ParsedNumbersAreStrtodsBits) {
  std::vector<std::string> tokens = {"+5",  "01",     ".5",     "5.",   "-0",     "1e400",
                                     "-1e400", "1e-400", "0.1", "5e-324", "2.2250738585072011e-308",
                                     "1.7976931348623157e308", "9007199254740993", "1e23",
                                     "-2E-3", "123456789012345678901234567890", "0", "-0.0",
                                     // Around the reader's 15-digit integer path.
                                     "999999999999999", "-999999999999999", "1000000000000000",
                                     "-1000000000000000", "000000000000000001", "123456789012345e2",
                                     "12345678901234.5", "7e0"};
  Rng rng(7654321);
  for (int i = 0; i < 20000; ++i) {
    double value = std::bit_cast<double>(static_cast<uint64_t>(rng.engine()()));
    if (std::isfinite(value)) {
      tokens.push_back(Printf("%.17g", value));
      tokens.push_back(Printf("%.12g", value));
      tokens.push_back(Printf("%.3e", value));
    }
    // An integer of 1 to 18 digits.
    const uint64_t digits = 1 + rng.engine()() % 18;
    uint64_t bound = 1;
    for (uint64_t d = 0; d < digits; ++d) {
      bound *= 10;
    }
    const int64_t integer = static_cast<int64_t>(rng.engine()() % bound);
    tokens.push_back(std::to_string(i % 2 == 0 ? integer : -integer));
  }
  for (const std::string& token : tokens) {
    Result<JsonValue> parsed = ParseJson(token);
    ASSERT_TRUE(parsed.ok()) << token << ": " << parsed.status().ToString();
    ASSERT_TRUE(parsed->is_number()) << token;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed->number),
              std::bit_cast<uint64_t>(std::strtod(token.c_str(), nullptr)))
        << token;
  }
  // A token is the whole run of number characters, and strtod must take
  // all of it.
  const std::pair<const char*, const char*> errors[] = {
      {"1.2.3", "JSON parse error at offset 5: invalid number '1.2.3'"},
      {"-", "JSON parse error at offset 1: invalid number '-'"},
      {"[1e5-3]", "JSON parse error at offset 6: invalid number '1e5-3'"},
      {"[.]", "JSON parse error at offset 2: invalid number '.'"},
      {"[x]", "JSON parse error at offset 1: invalid value"},
  };
  for (const auto& [text, message] : errors) {
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(), message) << text;
  }
}

// ------------------------------------------------------ structured logging

TEST(LogTest, FormatLogRecordIsParseableJsonWithFlattenedFields) {
  std::string record = obs::FormatLogRecord(
      obs::LogLevel::kWarn, "load \"failed\"",
      {{"path", "a/b.csv"}, {"rows", 128}, {"ratio", 0.5}, {"retry", true}},
      /*span_id=*/7, /*ts_us=*/123456, /*tid=*/3);
  Result<JsonValue> parsed = ParseJson(record);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\nrecord: " << record;
  EXPECT_EQ(parsed->Find("ts_us")->number, 123456.0);
  EXPECT_EQ(parsed->Find("level")->string_value, "warn");
  EXPECT_EQ(parsed->Find("tid")->number, 3.0);
  EXPECT_EQ(parsed->Find("span")->number, 7.0);
  EXPECT_EQ(parsed->Find("msg")->string_value, "load \"failed\"");
  EXPECT_EQ(parsed->Find("path")->string_value, "a/b.csv");
  EXPECT_EQ(parsed->Find("rows")->number, 128.0);
  EXPECT_EQ(parsed->Find("ratio")->number, 0.5);
  EXPECT_TRUE(parsed->Find("retry")->bool_value);
  // Exactly one line, no trailing newline (the sink appends it).
  EXPECT_EQ(record.find('\n'), std::string::npos);
}

TEST(LogTest, SpanIdZeroIsOmitted) {
  std::string record = obs::FormatLogRecord(obs::LogLevel::kInfo, "no span", {},
                                            /*span_id=*/0, 1, /*tid=*/0);
  Result<JsonValue> parsed = ParseJson(record);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("span"), nullptr);
  EXPECT_NE(parsed->Find("tid"), nullptr);
}

TEST(LogTest, ParseLogLevelAcceptsTheDocumentedNamesOnly) {
  struct Case {
    const char* text;
    obs::LogLevel level;
  };
  for (const Case& c : {Case{"debug", obs::LogLevel::kDebug},
                        Case{"info", obs::LogLevel::kInfo},
                        Case{"warn", obs::LogLevel::kWarn},
                        Case{"error", obs::LogLevel::kError},
                        Case{"off", obs::LogLevel::kOff}}) {
    Result<obs::LogLevel> parsed = obs::ParseLogLevel(c.text);
    ASSERT_TRUE(parsed.ok()) << c.text;
    EXPECT_EQ(*parsed, c.level) << c.text;
    EXPECT_EQ(obs::LogLevelName(c.level), c.text);
  }
  EXPECT_FALSE(obs::ParseLogLevel("").ok());
  EXPECT_FALSE(obs::ParseLogLevel("verbose").ok());
  EXPECT_FALSE(obs::ParseLogLevel("WARN").ok());
}

TEST(LogTest, MinLevelFiltersLowerLevels) {
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::LogEnabled(obs::LogLevel::kDebug));
  EXPECT_FALSE(obs::LogEnabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(obs::LogEnabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(obs::LogEnabled(obs::LogLevel::kError));
  obs::SetMinLogLevel(obs::LogLevel::kOff);
  EXPECT_FALSE(obs::LogEnabled(obs::LogLevel::kError));
  obs::SetMinLogLevel(saved);
}

// -------------------------------------------------- CLI integration check

#if defined(SCODED_CLI_BIN) && defined(SCODED_FIXTURE_CSV)

std::string ReadAll(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "";
  }
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

TEST(CliObservabilityTest, CheckWithStatsReportsExecutedTests) {
  std::string stats_path = ::testing::TempDir() + "/scoded_stats.json";
  std::string trace_path = ::testing::TempDir() + "/scoded_trace.json";
  std::string command = std::string(SCODED_CLI_BIN) + " check --csv " + SCODED_FIXTURE_CSV +
                        " --sc \"Model _||_ Color\" --alpha 0.05 --trace-out " + trace_path +
                        " --stats " + stats_path + " > /dev/null 2>&1";
  int rc = std::system(command.c_str());
  ASSERT_EQ(rc, 0) << "command failed: " << command;

  // --stats: per-span timings from the profiler it arms, plus the
  // process-wide metrics snapshot with nonzero tests_executed.
  Result<JsonValue> stats = ParseJson(ReadAll(stats_path));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
#if !defined(SCODED_OBS_DISABLED)
  const JsonValue* profile = stats->Find("profile");
  ASSERT_NE(profile, nullptr);
  const JsonValue* spans = profile->Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_FALSE(spans->array.empty());
#endif
  const JsonValue* metrics = stats->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* executed = counters->Find("stats.tests_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->number, 0.0);

  // --trace-out: a Chrome trace-event array of complete events. (Empty
  // but still valid JSON when spans are compiled out.)
  Result<JsonValue> trace = ParseJson(ReadAll(trace_path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_TRUE(trace->is_array());
#if !defined(SCODED_OBS_DISABLED)
  EXPECT_FALSE(trace->array.empty());
#endif
  for (const JsonValue& event : trace->array) {
    EXPECT_EQ(event.Find("ph")->string_value, "X");
    EXPECT_TRUE(event.Find("ts")->is_number());
    EXPECT_TRUE(event.Find("dur")->is_number());
    EXPECT_FALSE(event.Find("name")->string_value.empty());
  }
  std::remove(stats_path.c_str());
  std::remove(trace_path.c_str());
}

#endif  // SCODED_CLI_BIN && SCODED_FIXTURE_CSV

}  // namespace
}  // namespace scoded
