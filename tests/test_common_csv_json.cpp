#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "ref_json_number.hpp"

namespace eco {
namespace {

// ------------------------------------------------------------------- CSV

TEST(Csv, EncodePlainRow) {
  EXPECT_EQ(CsvEncodeRow({"a", "b", "c"}), "a,b,c");
}

TEST(Csv, EncodeQuotesSpecials) {
  EXPECT_EQ(CsvEncodeRow({"a,b", "he said \"hi\"", "line\nbreak"}),
            "\"a,b\",\"he said \"\"hi\"\"\",\"line\nbreak\"");
}

TEST(Csv, ParseSimpleDocument) {
  auto rows = CsvParse("a,b\nc,d\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][1], "d");
}

TEST(Csv, ParseQuotedCommaAndNewline) {
  auto rows = CsvParse("\"a,b\",\"x\ny\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "x\ny");
}

TEST(Csv, ParseEscapedQuote) {
  auto rows = CsvParse("\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0], "he said \"hi\"");
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_FALSE(CsvParse("\"oops\n").ok());
}

TEST(Csv, CrLfHandled) {
  auto rows = CsvParse("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], "b");
}

TEST(Csv, RoundTripThroughFile) {
  const std::string path = testing::TempDir() + "eco_csv_roundtrip.csv";
  const std::vector<CsvRow> rows = {{"id", "name"}, {"1", "a,b \"q\""}};
  ASSERT_TRUE(CsvWriteFile(path, rows).ok());
  auto loaded = CsvReadFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileIsError) {
  EXPECT_FALSE(CsvReadFile("/nonexistent/nope.csv").ok());
}

// ------------------------------------------------------------------ JSON

TEST(Json, ParsePaperConfiguration) {
  // The exact configuration document from §3.3.
  const std::string text = R"([
    {
      "cores": 32,
      "threads_per_core": 2,
      "frequency": 2200000
    }
  ])";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_array());
  const Json& config = parsed->as_array()[0];
  EXPECT_EQ(config.at("cores").as_int(), 32);
  EXPECT_EQ(config.at("threads_per_core").as_int(), 2);
  EXPECT_EQ(config.at("frequency").as_int(), 2200000);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::Parse("true")->as_bool());
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_DOUBLE_EQ(Json::Parse("-2.5e3")->as_number(), -2500.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseStringEscapes) {
  auto parsed = Json::Parse(R"("a\n\t\"\\A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "a\n\t\"\\A");
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("").ok());
}

TEST(Json, MissingKeyIsNull) {
  auto parsed = Json::Parse("{\"a\": 1}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->at("b").is_null());
  EXPECT_EQ(parsed->at("b").as_int(7), 7);  // fallback honoured
}

TEST(Json, DumpRoundTrip) {
  JsonObject obj;
  obj["cores"] = 32;
  obj["ratio"] = 0.0488;
  obj["name"] = "eco";
  obj["flags"] = Json(JsonArray{Json(true), Json(), Json(-1)});
  const Json original(std::move(obj));
  auto reparsed = Json::Parse(original.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->at("cores").as_int(), 32);
  EXPECT_DOUBLE_EQ(reparsed->at("ratio").as_number(), 0.0488);
  EXPECT_EQ(reparsed->at("flags").as_array().size(), 3u);
  EXPECT_EQ(reparsed->Dump(), original.Dump());
}

TEST(Json, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(Json(2200000).Dump(), "2200000");
  EXPECT_EQ(Json(-3).Dump(), "-3");
}

TEST(Json, IndentedDumpParsesBack) {
  JsonObject inner;
  inner["x"] = 1;
  JsonObject obj;
  obj["nested"] = Json(std::move(inner));
  obj["arr"] = Json(JsonArray{Json(1), Json(2)});
  const std::string dumped = Json(std::move(obj)).Dump(2);
  EXPECT_NE(dumped.find('\n'), std::string::npos);
  EXPECT_TRUE(Json::Parse(dumped).ok());
}

// ------------------------------------------ JSON numbers vs the old codec

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Dump must write the old codec's bytes, and parsing them back (alone and
// inside an array) must give the bits strtod gave.
class NumberCodecDiff {
 public:
  void Check(double v) {
    const std::string want = ref::DumpNumber(v);
    const std::string got = Json(v).Dump();
    double want_value = 0.0;
    const bool want_ok = ref::ParseNumberDocument(want, want_value);
    const auto alone = Json::Parse(got);
    const auto in_array = Json::Parse("[" + got + "]");
    const bool same =
        got == want && want_ok && alone.ok() &&
        Bits(alone->as_number(-1.0)) == Bits(want_value) && in_array.ok() &&
        Bits(in_array->as_array().at(0).as_number(-1.0)) == Bits(want_value);
    if (!same && ++mismatches_ <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << Bits(v) << std::dec
                    << ": dump '" << got << "', old '" << want << "'";
    }
    ++checked_;
  }
  [[nodiscard]] int mismatches() const { return mismatches_; }
  [[nodiscard]] std::size_t checked() const { return checked_; }

 private:
  int mismatches_ = 0;
  std::size_t checked_ = 0;
};

TEST(JsonNumberDiff, DumpBytesAndParsedBitsMatchTheOldCodec) {
  NumberCodecDiff diff;
  const double two53 = 9007199254740992.0;
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 0.0488, 2200000.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), FromBits(0x000FFFFFFFFFFFFFull),
        DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, 1e308, -1e308, two53 - 1.0,
        two53, two53 + 2.0, -(two53 - 1.0), -two53, 9007199254740993.0,
        4503599627370495.5, -4503599627370495.5, 1e15, 1e16, 1e17, 1e21,
        1e22, 1e-5, 1e-7, 123456789012345678.0}) {
    diff.Check(v);
  }
  Rng rng(20261019);
  for (int i = 0; i < 1'000'000; ++i) {
    double v = 0.0;
    switch (i % 8) {
      case 0: {  // any finite bit pattern
        v = FromBits(rng.NextU64());
        if (!std::isfinite(v)) v = FromBits(rng.NextU64() >> 2);
        break;
      }
      case 1:  // subnormals of either sign
        v = FromBits((rng.NextU64() & 0x800FFFFFFFFFFFFFull));
        break;
      case 2:  // integers of every size up to 2^63, either sign
        v = static_cast<double>(static_cast<long long>(
            rng.NextU64() >> rng.NextBounded(64)));
        if (rng.Chance(0.5)) v = -v;
        break;
      case 3:  // around the integer-form cut at 2^53
        v = two53 + static_cast<double>(rng.UniformInt(-4096, 4096)) +
            (rng.Chance(0.25) ? 0.5 : 0.0);
        if (rng.Chance(0.5)) v = -v;
        break;
      case 4:  // the model blob's range: thresholds, leaf means
        v = rng.Uniform(-1e6, 1e6);
        break;
      case 5:  // short decimals
        v = static_cast<double>(rng.UniformInt(-99999, 99999)) /
            std::pow(10.0, rng.UniformInt(1, 8));
        break;
      case 6:  // every decimal exponent
        v = rng.Uniform(1.0, 10.0) * std::pow(10.0, rng.UniformInt(-330, 307));
        break;
      default:  // values at the top of the range
        v = rng.Uniform(0.1, 1.7) * 1e308;
        if (rng.Chance(0.5)) v = -v;
        break;
    }
    diff.Check(v);
  }
  EXPECT_GE(diff.checked(), 1'000'000u);
  EXPECT_EQ(diff.mismatches(), 0);
  // Non-finite values do not parse back, but dump as before.
  for (const double v : {std::nan(""), -std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_EQ(Json(v).Dump(), ref::DumpNumber(v));
  }
}

// Accepted by both or rejected by both, with bitwise-equal values; alone
// and as an array element, so the parser must stop at the token's end.
void ExpectSameVerdict(const std::string& token) {
  double want = 0.0;
  const bool want_ok = ref::ParseNumberDocument(token, want);
  for (const std::string& text : {token, "[" + token + "]"}) {
    const auto parsed = Json::Parse(text);
    ASSERT_EQ(parsed.ok(), want_ok) << "'" << text << "'";
    if (!want_ok) continue;
    const Json& value =
        text == token ? *parsed : parsed->as_array().at(0);
    ASSERT_TRUE(value.is_number()) << "'" << text << "'";
    EXPECT_EQ(Bits(value.as_number()), Bits(want)) << "'" << text << "'";
  }
}

TEST(JsonNumberDiff, HostileTokensGetTheOldVerdict) {
  for (const char* token :
       {"1e", "--1", "1.2.3", "1e999", "-1e999", "+5", "+-5", "-+5", "++5",
        "1e-400", "-1e-400", "2e-324", "1e-400-5", "4.9e-324", ".5", "5.",
        "-.5e-3", ".", "-", "+", "e5", "E", "1e+", "1E5", "-0", "00012",
        "1.e5", "1ee5", "1e5.5", "1-2", "123456789012345678901234567890"}) {
    ExpectSameVerdict(token);
  }
  // What the old parser did with these, pinned as well.
  EXPECT_EQ(Json::Parse("+5")->as_number(), 5.0);
  EXPECT_EQ(Bits(Json::Parse("-1e-400")->as_number()), Bits(-0.0));
  EXPECT_FALSE(Json::Parse("1e999").ok());
  // Letters never reach the number scan, so no strtod spelling gets in.
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "+inf",
                            "Infinity", "0x10", "1e5f", "0b1"}) {
    EXPECT_FALSE(Json::Parse(token).ok()) << token;
  }
}

TEST(JsonNumberDiff, RandomNumberCharTokensGetTheOldVerdict) {
  static const char kChars[] = "0123456789.eE+-";
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    std::string token;
    const std::size_t len = 1 + rng.NextBounded(12);
    for (std::size_t c = 0; c < len; ++c) {
      // Digits twice as likely, so many tokens are numbers.
      token.push_back(rng.Chance(0.5) ? kChars[rng.NextBounded(10)]
                                      : kChars[rng.NextBounded(15)]);
    }
    ExpectSameVerdict(token);
    if (HasFailure()) break;
  }
}

TEST(Json, WhitespaceIsTheSixCLocaleSpaces) {
  EXPECT_TRUE(Json::Parse(" \t\n\v\f\r[1,\v2]\f").ok());
  EXPECT_FALSE(Json::Parse("\x1c" "1").ok());
  EXPECT_FALSE(Json::Parse("\xa0" "1").ok());
}

TEST(Json, RepeatedKeyKeepsItsLastValueInAnyKeyOrder) {
  auto parsed = Json::Parse(R"({"b": 1, "a": 2, "b": 3, "c": {"y": 1, "x": 2}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("b").as_int(), 3);
  EXPECT_EQ(parsed->as_object().size(), 3u);
  EXPECT_EQ(parsed->Dump(), R"({"a":2,"b":3,"c":{"x":2,"y":1}})");
}

}  // namespace
}  // namespace eco
