// Chronus persistence layer: domain codecs, MiniDb, both repositories
// (parameterized so each backend passes the identical contract suite), and
// the storage integrations.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "chronus/domain.hpp"
#include "chronus/minidb.hpp"
#include "chronus/repo_codec.hpp"
#include "chronus/repositories.hpp"
#include "chronus/storage.hpp"
#include "common/csv.hpp"

namespace eco::chronus {
namespace {
namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  // Tag with the running test's full name: ctest runs the gtest-discovered
  // cases of this binary in parallel, and the parameterized repository
  // contract tests would otherwise race each other's remove_all on a
  // shared per-backend directory.
  std::string tag = name;
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    tag += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  for (char& c : tag) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string dir = testing::TempDir() + "eco_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- Domain

TEST(Configuration, JsonRoundTripMatchesPaperFormat) {
  const Configuration config{32, 2, kHz(2'200'000)};
  const std::string dumped = config.ToJson().Dump();
  EXPECT_NE(dumped.find("\"cores\":32"), std::string::npos);
  EXPECT_NE(dumped.find("\"frequency\":2200000"), std::string::npos);
  auto parsed = Configuration::FromJson(*Json::Parse(dumped));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, config);
}

TEST(Configuration, FromJsonValidates) {
  EXPECT_FALSE(Configuration::FromJson(Json(1)).ok());
  EXPECT_FALSE(Configuration::FromJson(*Json::Parse("{}")).ok());
  EXPECT_FALSE(
      Configuration::FromJson(*Json::Parse(R"({"cores":0,"frequency":1})"))
          .ok());
}

TEST(Configuration, ParseConfigurationsFile) {
  const std::string text = R"([
    {"cores": 32, "threads_per_core": 2, "frequency": 2200000},
    {"cores": 16, "threads_per_core": 1, "frequency": 1500000}
  ])";
  auto configs = ParseConfigurationsFile(text);
  ASSERT_TRUE(configs.ok());
  ASSERT_EQ(configs->size(), 2u);
  EXPECT_EQ((*configs)[1].cores, 16);
  EXPECT_FALSE(ParseConfigurationsFile("{}").ok());
  EXPECT_FALSE(ParseConfigurationsFile("[{\"cores\": 0}]").ok());
}

TEST(SystemRecord, AllConfigurationsEnumeratesFullSpace) {
  SystemRecord system;
  system.cores = 32;
  system.threads_per_core = 2;
  system.frequencies = {kHz(1'500'000), kHz(2'200'000), kHz(2'500'000)};
  const auto configs = system.AllConfigurations();
  EXPECT_EQ(configs.size(), 32u * 3u * 2u);
}

TEST(BenchmarkRecord, GflopsPerWatt) {
  BenchmarkRecord b;
  b.gflops = 9.35;
  b.avg_system_watts = 216.6;
  EXPECT_NEAR(b.GflopsPerWatt(), 0.0432, 0.0002);
  b.avg_system_watts = 0.0;
  EXPECT_DOUBLE_EQ(b.GflopsPerWatt(), 0.0);
}

TEST(RepoCodec, SystemRoundTrip) {
  SystemRecord system;
  system.id = 3;
  system.cpu_name = "AMD EPYC 7502P 32-Core Processor";
  system.cores = 32;
  system.threads_per_core = 2;
  system.frequencies = {kHz(1'500'000), kHz(2'500'000)};
  system.ram_bytes = GiB(256);
  system.system_hash = "abcd1234";
  auto back = RowToSystem(SystemToRow(system));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cpu_name, system.cpu_name);
  EXPECT_EQ(back->frequencies, system.frequencies);
  EXPECT_EQ(back->ram_bytes, system.ram_bytes);
  EXPECT_EQ(back->system_hash, system.system_hash);
}

TEST(RepoCodec, BenchmarkRoundTrip) {
  BenchmarkRecord b;
  b.id = 9;
  b.system_id = 3;
  b.application = "hpcg";
  b.binary_hash = "ff00";
  b.config = {32, 2, kHz(2'200'000)};
  b.gflops = 9.027;
  b.duration_s = 1149.0;
  b.system_kilojoules = 211.5;
  b.avg_system_watts = 184.0;
  auto back = RowToBenchmark(BenchmarkToRow(b));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->config, b.config);
  EXPECT_NEAR(back->gflops, b.gflops, 1e-5);
  EXPECT_NEAR(back->avg_system_watts, b.avg_system_watts, 1e-3);
}

// ---------------------------------------------------------------- MiniDb

TEST(MiniDb, InsertAssignsSequentialIds) {
  MiniDb db;
  EXPECT_EQ(*db.Insert("t", {{"x", "1"}}), 1);
  EXPECT_EQ(*db.Insert("t", {{"x", "2"}}), 2);
  EXPECT_EQ(db.SelectAll("t")->size(), 2u);
}

TEST(MiniDb, WhereAndSelectById) {
  MiniDb db;
  db.Insert("t", {{"color", "red"}});
  db.Insert("t", {{"color", "blue"}});
  db.Insert("t", {{"color", "red"}});
  EXPECT_EQ(db.Where("t", "color", "red").size(), 2u);
  auto row = db.SelectById("t", 2);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)["color"], "blue");
  EXPECT_FALSE(db.SelectById("t", 99).ok());
  EXPECT_FALSE(db.SelectById("missing", 1).ok());
}

TEST(MiniDb, UpdateReplacesRow) {
  MiniDb db;
  db.Insert("t", {{"v", "old"}});
  ASSERT_TRUE(db.Update("t", 1, {{"v", "new"}}).ok());
  EXPECT_EQ(db.SelectById("t", 1)->at("v"), "new");
  EXPECT_FALSE(db.Update("t", 5, {}).ok());
}

TEST(MiniDb, PersistsAcrossReopen) {
  const std::string path = FreshDir("minidb") + "/data.db";
  {
    MiniDb db(path);
    ASSERT_TRUE(db.Open().ok());
    db.Insert("benchmarks", {{"gflops", "9.35"}, {"note", "has,comma"}});
    db.Insert("systems", {{"cpu", "EPYC"}});
    ASSERT_TRUE(db.Flush().ok());
  }
  MiniDb reloaded(path);
  ASSERT_TRUE(reloaded.Open().ok());
  EXPECT_EQ(reloaded.Tables().size(), 2u);
  EXPECT_EQ(reloaded.SelectById("benchmarks", 1)->at("note"), "has,comma");
  // Ids keep counting after reload.
  EXPECT_EQ(*reloaded.Insert("benchmarks", {}), 2);
}

TEST(MiniDb, InMemoryFlushIsNoop) {
  MiniDb db;
  db.Insert("t", {});
  EXPECT_TRUE(db.Flush().ok());
}

// The file's inode: a rewrite (tmp file + rename) changes it, an append not.
ino_t Inode(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

void ExpectSameTables(MiniDb& a, MiniDb& b) {
  ASSERT_EQ(a.Tables(), b.Tables());
  for (const auto& table : a.Tables()) {
    EXPECT_EQ(*a.SelectAll(table), *b.SelectAll(table)) << table;
  }
}

TEST(MiniDb, TornTailDropsOnlyTheLastRecord) {
  const std::string path = FreshDir("minidb_torn") + "/data.db";
  const std::vector<DbRow> rows = {
      {{"note", "plain"}, {"v", "1"}},
      {{"note", "has,comma"}, {"v", "2"}},
      {{"note", "multi\nline \"quoted\", cell"}, {"v", "3"}},
  };
  std::size_t before = 0;
  {
    MiniDb db(path);
    ASSERT_TRUE(db.Open().ok());
    for (const auto& row : rows) {
      before = fs::exists(path) ? fs::file_size(path) : 0;
      ASSERT_TRUE(db.Insert("t", row).ok());
      ASSERT_TRUE(db.Flush().ok());
    }
  }
  const std::string full = *ReadWholeFile(path);
  ASSERT_GT(full.size(), before);
  // The last record holds a quoted cell with an embedded newline, so some
  // cuts end inside the quotes, right after that newline.
  ASSERT_NE(full.find('\n', full.find('"', before)), full.size() - 1);

  std::vector<DbRow> kept;
  {
    MiniDb clean(path);
    ASSERT_TRUE(clean.Open().ok());
    kept = *clean.SelectAll("t");
    kept.pop_back();
  }
  for (std::size_t cut = before; cut < full.size(); ++cut) {
    ASSERT_TRUE(WriteWholeFile(path, full.substr(0, cut)).ok());
    MiniDb db(path);
    ASSERT_TRUE(db.Open().ok()) << "cut at " << cut;
    ASSERT_EQ(*db.SelectAll("t"), kept) << "cut at " << cut;
    // The next Flush rewrites the torn file whole: the bytes of the file
    // before the last append, which reopen cleanly.
    ASSERT_TRUE(db.Flush().ok()) << "cut at " << cut;
    ASSERT_EQ(*ReadWholeFile(path), full.substr(0, before)) << "cut at " << cut;
    MiniDb reopened(path);
    ASSERT_TRUE(reopened.Open().ok());
    ASSERT_EQ(*reopened.SelectAll("t"), kept) << "cut at " << cut;
    // Ids continue from the surviving rows.
    EXPECT_EQ(*reopened.Insert("t", {}), static_cast<int>(kept.size()) + 1);
  }
}

TEST(MiniDb, FlushAppendsNewRowsInPlace) {
  const std::string path = FreshDir("minidb_append") + "/data.db";
  MiniDb db(path);
  ASSERT_TRUE(db.Open().ok());
  db.Insert("t", {{"v", "first"}});
  ASSERT_TRUE(db.Flush().ok());
  const ino_t inode = Inode(path);
  for (int i = 0; i < 5; ++i) {
    const std::string before = *ReadWholeFile(path);
    db.Insert("t", {{"v", "row " + std::to_string(i)}});
    ASSERT_TRUE(db.Flush().ok());
    EXPECT_EQ(Inode(path), inode);
    EXPECT_EQ(*ReadWholeFile(path),
              before + CsvEncodeRow({"R", std::to_string(i + 2),
                                     "row " + std::to_string(i)}) +
                  "\n");
  }
  // A flush with nothing new leaves the file alone.
  const std::string settled = *ReadWholeFile(path);
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(*ReadWholeFile(path), settled);
}

TEST(MiniDb, UpdateRewritesOnceThenAppendsResume) {
  const std::string path = FreshDir("minidb_update") + "/data.db";
  MiniDb db(path);
  ASSERT_TRUE(db.Open().ok());
  db.Insert("alpha", {{"a", "1"}, {"b", "x"}});
  db.Insert("beta", {{"a", "2"}, {"b", "y"}});
  db.Insert("alpha", {{"a", "3"}, {"b", "z"}});
  ASSERT_TRUE(db.Flush().ok());
  const ino_t first = Inode(path);

  ASSERT_TRUE(db.Update("alpha", 1, {{"a", "new"}, {"b", "w"}}).ok());
  ASSERT_TRUE(db.Flush().ok());
  const ino_t rewritten = Inode(path);
  EXPECT_NE(rewritten, first);
  {
    MiniDb reopened(path);
    ASSERT_TRUE(reopened.Open().ok());
    ExpectSameTables(db, reopened);
  }
  // One rewrite: the next insert appends to the rewritten file.
  db.Insert("beta", {{"a", "4"}, {"b", "v"}});
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(Inode(path), rewritten);
  MiniDb reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  ExpectSameTables(db, reopened);
}

TEST(MiniDb, NewColumnRewritesAndReopenUnionsRedeclaredTables) {
  const std::string path = FreshDir("minidb_columns") + "/data.db";
  // A log that declares table t twice, the second time without column b;
  // each R reads by its own section's header, and t keeps b.
  const std::string log =
      "T,t\nH,a,b,id\nR,1,x,1\nT,u\nH,id\nR,1\nT,t\nH,id,a\nR,2,2\n";
  ASSERT_TRUE(WriteWholeFile(path, log).ok());
  MiniDb db(path);
  ASSERT_TRUE(db.Open().ok());
  auto rows = *db.SelectAll("t");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (DbRow{{"a", "1"}, {"b", "x"}, {"id", "1"}}));
  EXPECT_EQ(rows[1], (DbRow{{"a", "2"}, {"id", "2"}}));
  EXPECT_EQ(*db.Insert("t", {{"a", "3"}, {"b", "y"}}), 3);

  // No new column: appended under a fresh section for t.
  const ino_t inode = Inode(path);
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(Inode(path), inode);
  {
    MiniDb reopened(path);
    ASSERT_TRUE(reopened.Open().ok());
    EXPECT_EQ(reopened.SelectAll("t")->back(),
              (DbRow{{"a", "3"}, {"b", "y"}, {"id", "3"}}));
  }
  // A new column rewrites the file, and every column survives it.
  db.Insert("t", {{"c", "z"}});
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_NE(Inode(path), inode);
  MiniDb reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.SelectAll("t")->size(), 4u);
  EXPECT_EQ(reopened.SelectById("t", 1)->at("b"), "x");
  EXPECT_EQ(reopened.SelectById("t", 4)->at("c"), "z");
  EXPECT_EQ(reopened.SelectAll("u")->size(), 1u);
}

TEST(MiniDbRepositoryFile, SaveBenchmarkAppendsOneRowLine) {
  const std::string path = FreshDir("repo_append") + "/data.db";
  MiniDbRepository repo(path);
  SystemRecord system;
  system.system_hash = "h";
  const int system_id = *repo.SaveSystem(system);
  BenchmarkRecord bench;
  bench.system_id = system_id;
  bench.application = "hpcg";
  bench.binary_hash = "bin";
  bench.config = {32, 2, kHz(2'200'000)};
  // The first save adds the table (a rewrite); the second opens its
  // section at the end of the file.
  ASSERT_TRUE(repo.SaveBenchmark(bench).ok());
  ASSERT_TRUE(repo.SaveBenchmark(bench).ok());
  const ino_t inode = Inode(path);
  for (int i = 0; i < 6; ++i) {
    bench.gflops = 9.25 + i;
    bench.avg_system_watts = 190.5 - i;
    const std::string before = *ReadWholeFile(path);
    const int id = *repo.SaveBenchmark(bench);
    const std::string after = *ReadWholeFile(path);
    EXPECT_EQ(Inode(path), inode);
    ASSERT_EQ(after.compare(0, before.size(), before), 0);
    // The growth is exactly this row's R record, cells in the order of the
    // file's last header.
    const auto records = *CsvParse(after);
    const CsvRow* header = nullptr;
    for (const auto& record : records) {
      if (record.at(0) == "H") header = &record;
    }
    ASSERT_NE(header, nullptr);
    DbRow row = BenchmarkToRow(bench);
    row["id"] = std::to_string(id);
    CsvRow cells = {"R"};
    for (std::size_t c = 1; c < header->size(); ++c) {
      cells.push_back(row.at((*header)[c]));
    }
    EXPECT_EQ(after.substr(before.size()), CsvEncodeRow(cells) + "\n");
  }
}

// ---------------------------------------------- Repository contract suite

using RepoFactory = std::function<RepositoryPtr()>;

struct RepoBackend {
  const char* name;
  RepoFactory make;
};

// Prints the backend by name; gtest's default printer would show the
// string's address, which moves with every build and load.
void PrintTo(const RepoBackend& backend, std::ostream* os) {
  *os << backend.name;
}

class RepositoryContract : public ::testing::TestWithParam<RepoBackend> {
 protected:
  RepositoryPtr repo_ = GetParam().make();

  SystemRecord MakeSystem(const std::string& hash = "hash-1") {
    SystemRecord system;
    system.cpu_name = "AMD EPYC 7502P 32-Core Processor";
    system.cores = 32;
    system.threads_per_core = 2;
    system.frequencies = {kHz(1'500'000), kHz(2'200'000), kHz(2'500'000)};
    system.ram_bytes = GiB(256);
    system.system_hash = hash;
    return system;
  }

  BenchmarkRecord MakeBenchmark(int system_id, int cores) {
    BenchmarkRecord b;
    b.system_id = system_id;
    b.application = "hpcg";
    b.binary_hash = "bin-1";
    b.config = {cores, 1, kHz(2'200'000)};
    b.gflops = 0.3 * cores;
    b.duration_s = 1000.0;
    b.avg_system_watts = 100.0 + cores;
    return b;
  }
};

TEST_P(RepositoryContract, SystemsSaveFindList) {
  auto id = repo_->SaveSystem(MakeSystem());
  ASSERT_TRUE(id.ok());
  EXPECT_GE(*id, 1);

  auto fetched = repo_->GetSystem(*id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->cores, 32);
  EXPECT_EQ(fetched->frequencies.size(), 3u);

  auto by_hash = repo_->FindSystemByHash("hash-1");
  ASSERT_TRUE(by_hash.ok());
  EXPECT_EQ(by_hash->id, *id);
  EXPECT_FALSE(repo_->FindSystemByHash("nope").ok());
  EXPECT_FALSE(repo_->GetSystem(99).ok());

  auto all = repo_->ListSystems();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1u);
}

TEST_P(RepositoryContract, SystemSaveIsIdempotentOnHash) {
  auto first = repo_->SaveSystem(MakeSystem());
  auto second = repo_->SaveSystem(MakeSystem());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(repo_->ListSystems()->size(), 1u);
  // A different machine gets a new id.
  auto other = repo_->SaveSystem(MakeSystem("hash-2"));
  EXPECT_NE(*first, *other);
}

TEST_P(RepositoryContract, BenchmarksFilteredBySystem) {
  const int sys1 = *repo_->SaveSystem(MakeSystem("h1"));
  const int sys2 = *repo_->SaveSystem(MakeSystem("h2"));
  repo_->SaveBenchmark(MakeBenchmark(sys1, 8));
  repo_->SaveBenchmark(MakeBenchmark(sys1, 16));
  repo_->SaveBenchmark(MakeBenchmark(sys2, 32));

  auto for_sys1 = repo_->ListBenchmarks(sys1);
  ASSERT_TRUE(for_sys1.ok());
  EXPECT_EQ(for_sys1->size(), 2u);
  auto for_sys2 = repo_->ListBenchmarks(sys2);
  EXPECT_EQ(for_sys2->size(), 1u);
  EXPECT_EQ(for_sys2->front().config.cores, 32);
  EXPECT_TRUE(repo_->ListBenchmarks(999)->empty());
}

TEST_P(RepositoryContract, BenchmarkFieldsSurviveRoundTrip) {
  const int sys = *repo_->SaveSystem(MakeSystem());
  BenchmarkRecord b = MakeBenchmark(sys, 32);
  b.avg_cpu_temp = 57.4;
  b.system_kilojoules = 211.53;
  auto id = repo_->SaveBenchmark(b);
  ASSERT_TRUE(id.ok());
  const auto loaded = repo_->ListBenchmarks(sys)->front();
  EXPECT_EQ(loaded.id, *id);
  EXPECT_EQ(loaded.application, "hpcg");
  EXPECT_NEAR(loaded.avg_cpu_temp, 57.4, 1e-6);
  EXPECT_NEAR(loaded.system_kilojoules, 211.53, 1e-3);
}

TEST_P(RepositoryContract, ModelMetaLifecycle) {
  const int sys = *repo_->SaveSystem(MakeSystem());
  ModelMeta meta;
  meta.system_id = sys;
  meta.type = "random-tree";
  meta.application = "hpcg";
  meta.binary_hash = "bin-1";
  meta.blob_path = "/blobs/model-1.json";
  meta.created_at = 1234.5;
  auto id = repo_->SaveModelMeta(meta);
  ASSERT_TRUE(id.ok());
  auto loaded = repo_->GetModelMeta(*id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->type, "random-tree");
  EXPECT_EQ(loaded->blob_path, meta.blob_path);
  EXPECT_NEAR(loaded->created_at, 1234.5, 1e-6);
  EXPECT_FALSE(repo_->GetModelMeta(77).ok());
  EXPECT_EQ(repo_->ListModels()->size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RepositoryContract,
    ::testing::Values(
        RepoBackend{"memory",
                    [] { return std::make_shared<MiniDbRepository>(""); }},
        RepoBackend{"minidb_file",
                    [] {
                      return std::make_shared<MiniDbRepository>(
                          FreshDir("repo_minidb") + "/data.db");
                    }},
        RepoBackend{"csv",
                    [] {
                      return std::make_shared<CsvRepository>(
                          FreshDir("repo_csv"));
                    }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(MiniDbRepository, ReloadsFromDisk) {
  const std::string path = FreshDir("repo_reload") + "/data.db";
  int sys_id = 0;
  {
    MiniDbRepository repo(path);
    SystemRecord system;
    system.cores = 32;
    system.threads_per_core = 2;
    system.system_hash = "zz";
    sys_id = *repo.SaveSystem(system);
    BenchmarkRecord b;
    b.system_id = sys_id;
    b.config = {32, 1, kHz(2'200'000)};
    b.gflops = 9.0;
    b.avg_system_watts = 184.0;
    repo.SaveBenchmark(b);
  }
  MiniDbRepository reloaded(path);
  EXPECT_EQ(reloaded.ListBenchmarks(sys_id)->size(), 1u);
  EXPECT_TRUE(reloaded.FindSystemByHash("zz").ok());
}

// --------------------------------------------------------------- Storage

TEST(EtcStorage, SettingsRoundTrip) {
  auto storage = std::make_shared<EtcStorage>(FreshDir("etc"));
  EXPECT_TRUE(storage->LoadSettings()->is_object());  // fresh = empty object
  JsonObject settings;
  settings["state"] = "active";
  ASSERT_TRUE(storage->SaveSettings(Json(std::move(settings))).ok());
  EXPECT_EQ(storage->LoadSettings()->at("state").as_string(), "active");
}

// Writes settings.json the way an editor or a shell redirect would: in
// place, keeping the inode.
void RawWrite(const std::string& dir, const std::string& text) {
  ASSERT_TRUE(WriteWholeFile(dir + "/settings.json", text).ok());
}

TEST(EtcStorage, SaveLeavesNoTempFileAndMovesTheEpoch) {
  const std::string dir = FreshDir("etc_save");
  EtcStorage storage(dir);
  for (const char* state : {"user", "active", "deactivated"}) {
    const std::uint64_t before = SettingsEpoch();
    JsonObject settings;
    settings["state"] = state;
    ASSERT_TRUE(storage.SaveSettings(Json(std::move(settings))).ok());
    EXPECT_GT(SettingsEpoch(), before);
    EXPECT_EQ((*storage.SettingsSnapshot())->at("state").as_string(), state);
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"settings.json"});
}

TEST(EtcStorage, UnchangedSettingsAreSharedNotReread) {
  EtcStorage storage(FreshDir("etc_shared"));
  JsonObject settings;
  settings["state"] = "active";
  ASSERT_TRUE(storage.SaveSettings(Json(std::move(settings))).ok());
  const std::uint64_t epoch = SettingsEpoch();
  auto first = storage.SettingsSnapshot();
  auto second = storage.SettingsSnapshot();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(SettingsEpoch(), epoch);
}

TEST(EtcStorage, SeesWritesThroughAnotherStorageAndRawWrites) {
  const std::string dir = FreshDir("etc_external");
  EtcStorage reader(dir);
  EtcStorage writer(dir);
  EXPECT_TRUE((*reader.SettingsSnapshot())->at("state").is_null());

  JsonObject settings;
  settings["state"] = "active";
  ASSERT_TRUE(writer.SaveSettings(Json(std::move(settings))).ok());
  EXPECT_EQ((*reader.SettingsSnapshot())->at("state").as_string(), "active");

  std::uint64_t before = SettingsEpoch();
  RawWrite(dir, R"({"state": "deactivated"})");
  EXPECT_EQ((*reader.SettingsSnapshot())->at("state").as_string(),
            "deactivated");
  EXPECT_GT(SettingsEpoch(), before);

  before = SettingsEpoch();
  RawWrite(dir, R"({"state": "user"})");
  EXPECT_EQ(reader.LoadSettings()->at("state").as_string(), "user");
  EXPECT_GT(SettingsEpoch(), before);
}

TEST(EtcStorage, CorruptSettingsAreNeverCached) {
  const std::string dir = FreshDir("etc_corrupt");
  EtcStorage storage(dir);
  JsonObject settings;
  settings["state"] = "active";
  ASSERT_TRUE(storage.SaveSettings(Json(std::move(settings))).ok());
  ASSERT_TRUE(storage.SettingsSnapshot().ok());

  const std::uint64_t before = SettingsEpoch();
  RawWrite(dir, "{\"state\": ");  // truncated mid-write
  EXPECT_FALSE(storage.SettingsSnapshot().ok());
  EXPECT_FALSE(storage.LoadSettings().ok());
  EXPECT_GT(SettingsEpoch(), before) << "dropping a snapshot is a change";
  const std::uint64_t dropped = SettingsEpoch();
  EXPECT_FALSE(storage.SettingsSnapshot().ok()) << "re-read, still corrupt";
  EXPECT_EQ(SettingsEpoch(), dropped);

  RawWrite(dir, R"({"state": "user"})");
  auto fixed = storage.SettingsSnapshot();
  ASSERT_TRUE(fixed.ok()) << fixed.message();
  EXPECT_EQ((*fixed)->at("state").as_string(), "user");
}

TEST(EtcStorage, ResolvePathAndFiles) {
  const std::string root = FreshDir("etc2");
  EtcStorage storage(root);
  EXPECT_EQ(storage.ResolvePath("model.json"), root + "/model.json");
  EXPECT_EQ(storage.ResolvePath("/abs/path"), "/abs/path");
  ASSERT_TRUE(storage.WriteFile("f.txt", "hello").ok());
  auto read = storage.ReadFile("f.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello");
  EXPECT_FALSE(storage.ReadFile("missing.txt").ok());
}

TEST(LocalBlobStorage, SaveReturnsLoadablePath) {
  LocalBlobStorage blobs(FreshDir("blobs"));
  auto path = blobs.Save("model-1.json", "{\"x\":1}");
  ASSERT_TRUE(path.ok());
  auto content = blobs.Load(*path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "{\"x\":1}");
  // Bare names resolve under the root too.
  EXPECT_TRUE(blobs.Load("model-1.json").ok());
  EXPECT_FALSE(blobs.Load("missing.json").ok());
}

}  // namespace
}  // namespace eco::chronus
