// Randomised property tests: MiniDb against an in-memory reference model,
// JSON generate/dump/parse round-trips, CSV round-trips with hostile
// strings, and CG/SymGS invariants on random right-hand sides. All seeds
// are fixed, so failures reproduce.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "chronus/minidb.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "hpcg/cg.hpp"
#include "hpcg/stencil.hpp"

namespace eco {
namespace {
namespace fs = std::filesystem;

// --------------------------------------------------------- MiniDb vs model

std::string RandomToken(Rng& rng) {
  static const char* tokens[] = {"",         "plain",      "with,comma",
                                 "with\"q\"", "multi\nline", "ünïcode",
                                 "  spaces  ", "127.5",     "#table fake"};
  return tokens[rng.NextBounded(std::size(tokens))];
}

TEST(MiniDbFuzz, MatchesReferenceModelThroughRandomOps) {
  const std::string path = testing::TempDir() + "eco_minidb_fuzz.db";
  fs::remove(path);

  // Reference: table -> id -> row.
  std::map<std::string, std::map<int, chronus::DbRow>> model;
  std::map<std::string, int> next_id;
  const std::vector<std::string> tables = {"alpha", "beta"};

  // Full-table agreement with the model.
  const auto check_all = [&](chronus::MiniDb& database) {
    for (const auto& table : tables) {
      auto rows = database.SelectAll(table);
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows->size(), model[table].size());
      for (const auto& row : *rows) {
        long long id = 0;
        ASSERT_TRUE(ParseInt64(row.at("id"), id));
        ASSERT_TRUE(model[table].count(static_cast<int>(id)) > 0);
        for (const auto& [key, value] : model[table][static_cast<int>(id)]) {
          EXPECT_EQ(row.at(key), value);
        }
      }
    }
  };
  chronus::MiniDb db(path);
  ASSERT_TRUE(db.Open().ok());
  Rng rng(99);
  // Reopen points come from their own stream, so the op sequence is the
  // same whatever they are.
  Rng reopen_rng(5);
  int reopens = 0;

  for (int op = 0; op < 400; ++op) {
    const std::string& table = tables[rng.NextBounded(tables.size())];
    const int action = static_cast<int>(rng.NextBounded(4));
    if (action <= 1) {  // insert (weighted)
      chronus::DbRow row;
      row["a"] = RandomToken(rng);
      row["b"] = RandomToken(rng);
      auto id = db.Insert(table, row);
      ASSERT_TRUE(id.ok());
      const int expected = ++next_id[table];
      EXPECT_EQ(*id, expected);
      row["id"] = std::to_string(*id);
      model[table][*id] = row;
    } else if (action == 2 && !model[table].empty()) {  // update existing
      const int id = 1 + static_cast<int>(rng.NextBounded(next_id[table]));
      chronus::DbRow row;
      row["a"] = RandomToken(rng);
      const Status updated = db.Update(table, id, row);
      if (model[table].count(id) > 0) {
        ASSERT_TRUE(updated.ok());
        row["id"] = std::to_string(id);
        model[table][id] = row;
      } else {
        EXPECT_FALSE(updated.ok());
      }
    } else {  // point query
      const int id = 1 + static_cast<int>(rng.NextBounded(
                             std::max(1, next_id[table] + 2)));
      auto row = db.SelectById(table, id);
      if (model[table].count(id) > 0) {
        ASSERT_TRUE(row.ok());
        for (const auto& [key, value] : model[table][id]) {
          EXPECT_EQ(row->at(key), value) << "table=" << table << " id=" << id;
        }
      } else {
        EXPECT_FALSE(row.ok());
      }
    }
    // Every op reaches the file (appends, or a rewrite after an update);
    // a fresh instance reading it back must see the model.
    ASSERT_TRUE(db.Flush().ok()) << "op " << op;
    if (reopen_rng.Chance(0.05)) {
      db = chronus::MiniDb(path);
      ASSERT_TRUE(db.Open().ok()) << "op " << op;
      check_all(db);
      ++reopens;
    }
  }
  EXPECT_GT(reopens, 5);

  // Final agreement, in memory and through a last persistence round trip.
  check_all(db);
  ASSERT_TRUE(db.Flush().ok());
  chronus::MiniDb reloaded(path);
  ASSERT_TRUE(reloaded.Open().ok());
  check_all(reloaded);
  fs::remove(path);
}

// ------------------------------------------------------------- JSON fuzz

Json RandomJson(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.NextBounded(depth <= 0 ? 4u : 6u));
  switch (kind) {
    case 0:
      return Json();
    case 1:
      return Json(rng.Chance(0.5));
    case 2: {
      // Mix of integers and doubles (integers must survive exactly).
      if (rng.Chance(0.5)) {
        return Json(static_cast<long long>(rng.NextU64() % 1000000007ull) -
                    500000000ll);
      }
      return Json(rng.Uniform(-1e6, 1e6));
    }
    case 3: {
      std::string s;
      const std::size_t len = rng.NextBounded(12);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(32 + rng.NextBounded(95)));
      }
      if (rng.Chance(0.3)) s += "\"\\\n\t";
      return Json(std::move(s));
    }
    case 4: {
      JsonArray arr;
      const std::size_t len = rng.NextBounded(4);
      for (std::size_t i = 0; i < len; ++i) {
        arr.push_back(RandomJson(rng, depth - 1));
      }
      return Json(std::move(arr));
    }
    default: {
      JsonObject obj;
      const std::size_t len = rng.NextBounded(4);
      for (std::size_t i = 0; i < len; ++i) {
        obj["k" + std::to_string(i)] = RandomJson(rng, depth - 1);
      }
      return Json(std::move(obj));
    }
  }
}

TEST(JsonFuzz, DumpParseFixedPoint) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const Json original = RandomJson(rng, 3);
    const std::string dumped = original.Dump();
    auto parsed = Json::Parse(dumped);
    ASSERT_TRUE(parsed.ok()) << dumped;
    // Dump(parse(dump(x))) == dump(x): canonical-form fixed point.
    EXPECT_EQ(parsed->Dump(), dumped);
    // Pretty-printed form parses to the same canonical dump.
    auto pretty = Json::Parse(original.Dump(2));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty->Dump(), dumped);
  }
}

// -------------------------------------------------------------- CSV fuzz

TEST(CsvFuzz, EncodeParseRoundTripHostileFields) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<CsvRow> rows;
    const std::size_t n_rows = 1 + rng.NextBounded(5);
    for (std::size_t r = 0; r < n_rows; ++r) {
      CsvRow row;
      const std::size_t n_cols = 1 + rng.NextBounded(5);
      for (std::size_t c = 0; c < n_cols; ++c) row.push_back(RandomToken(rng));
      rows.push_back(std::move(row));
    }
    std::string text;
    for (const auto& row : rows) text += CsvEncodeRow(row) + "\n";
    auto parsed = CsvParse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    ASSERT_EQ(parsed->size(), rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ((*parsed)[r], rows[r]);
    }
  }
}

// ------------------------------------------------------------- CG physics

TEST(CgProperty, ResidualShrinksForRandomRhs) {
  const hpcg::Geometry geo{8, 8, 8};
  const auto n = static_cast<std::size_t>(geo.size());
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    hpcg::Vec b(n), x(n, 0.0);
    for (auto& v : b) v = rng.Uniform(-10.0, 10.0);
    hpcg::CgOptions options;
    options.max_iterations = 40;
    options.tolerance = 0.0;
    const auto result = hpcg::CgSolver(geo, options).Solve(b, x);
    EXPECT_LT(result.final_residual, 1e-3 * result.initial_residual)
        << "trial " << trial;
  }
}

TEST(CgProperty, SolutionIndependentOfStartingPoint) {
  const hpcg::Geometry geo{6, 6, 6};
  const auto n = static_cast<std::size_t>(geo.size());
  Rng rng(53);
  hpcg::Vec b(n);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);

  hpcg::CgOptions options;
  options.max_iterations = 300;
  options.tolerance = 1e-11;

  hpcg::Vec from_zero(n, 0.0);
  hpcg::CgSolver(geo, options).Solve(b, from_zero);
  hpcg::Vec from_random(n);
  for (auto& v : from_random) v = rng.Uniform(-5.0, 5.0);
  hpcg::CgSolver(geo, options).Solve(b, from_random);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(from_zero[i] - from_random[i]));
  }
  EXPECT_LT(max_diff, 1e-6);
}

}  // namespace
}  // namespace eco
