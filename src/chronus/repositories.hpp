// The two Repository implementations from the paper's Figure 5:
//
//  - CsvRepository: three CSV files (systems.csv / benchmarks.csv /
//    models.csv) in a directory; loads eagerly, rewrites on save.
//  - MiniDbRepository: one MiniDb file (the SQLite stand-in); each save
//    flushes, which appends the new row to the file (see minidb.hpp).
//
// Both speak through the shared row codecs, so a database written by one can
// be read by the other's storage layer (covered by tests).
#pragma once

#include <string>
#include <vector>

#include "chronus/interfaces.hpp"
#include "chronus/minidb.hpp"

namespace eco::chronus {

class MiniDbRepository : public RepositoryInterface {
 public:
  // Empty path = in-memory (handy for tests).
  explicit MiniDbRepository(const std::string& path = "");

  Result<int> SaveSystem(const SystemRecord& system) override;
  Result<SystemRecord> GetSystem(int id) override;
  Result<SystemRecord> FindSystemByHash(const std::string& hash) override;
  Result<std::vector<SystemRecord>> ListSystems() override;

  Result<int> SaveBenchmark(const BenchmarkRecord& benchmark) override;
  Result<std::vector<BenchmarkRecord>> ListBenchmarks(int system_id) override;

  Result<int> SaveModelMeta(const ModelMeta& meta) override;
  Result<ModelMeta> GetModelMeta(int id) override;
  Result<std::vector<ModelMeta>> ListModels() override;

 private:
  MiniDb db_;
};

class CsvRepository : public RepositoryInterface {
 public:
  // `directory` must exist; files are created on first save.
  explicit CsvRepository(std::string directory);

  Result<int> SaveSystem(const SystemRecord& system) override;
  Result<SystemRecord> GetSystem(int id) override;
  Result<SystemRecord> FindSystemByHash(const std::string& hash) override;
  Result<std::vector<SystemRecord>> ListSystems() override;

  Result<int> SaveBenchmark(const BenchmarkRecord& benchmark) override;
  Result<std::vector<BenchmarkRecord>> ListBenchmarks(int system_id) override;

  Result<int> SaveModelMeta(const ModelMeta& meta) override;
  Result<ModelMeta> GetModelMeta(int id) override;
  Result<std::vector<ModelMeta>> ListModels() override;

 private:
  Result<std::vector<DbRow>> LoadTable(const std::string& file,
                                       const std::vector<std::string>& columns);
  Status StoreTable(const std::string& file,
                    const std::vector<std::string>& columns,
                    const std::vector<DbRow>& rows);
  static int NextId(const std::vector<DbRow>& rows);

  std::string dir_;
};

}  // namespace eco::chronus
