// Storage integrations:
//  - EtcStorage: the LocalStorage implementation (paper: "ETC Storage") —
//    settings.json plus pre-loaded model files under a root directory
//    (/etc/chronus on a real system; any directory here).
//  - LocalBlobStorage: the FileRepository implementation — serialized
//    optimizers as files under ./optimizers (§3.2 "File Repository"); the
//    paper notes NFS/S3 could implement the same interface.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "chronus/interfaces.hpp"

namespace eco::chronus {

// Process-wide settings epoch. It moves whenever any EtcStorage's settings
// snapshot changes — by its own SaveSettings or by a change to the file it
// sees through stat() — so every cache of a settings-derived answer (the
// SlurmConfigService models, the plugin's decisions) tags entries with the
// epoch it read *after* refreshing the snapshot and treats a mismatch as a
// miss. LoadModelService always writes settings, so a preload moves it.
[[nodiscard]] std::uint64_t SettingsEpoch();

class EtcStorage : public LocalStorageInterface {
 public:
  explicit EtcStorage(std::string root);

  // settings.json is parsed once and kept; each read revalidates the copy
  // with one stat() keyed (dev, inode, size, mtime_ns). SaveSettings writes
  // a temp file and rename(2)s it into place and installs what it wrote,
  // so this storage sees its own writes exactly and another writer's
  // `chronus set` brings a new inode. A file that fails to parse is never
  // kept. The remaining blind spot: another writer's rewrites inside one
  // mtime tick that leave a file of the cached size on the cached inode
  // (in place, or through a temp file that reused the freed inode).
  Result<Json> LoadSettings() override;
  Result<std::shared_ptr<const Json>> SettingsSnapshot() override;
  Status SaveSettings(const Json& settings) override;
  [[nodiscard]] std::string ResolvePath(const std::string& name) const override;
  Status WriteFile(const std::string& name, const std::string& data) override;
  Result<std::string> ReadFile(const std::string& name) override;

 private:
  // (dev, inode, size, mtime_ns) of settings.json.
  using FileKey = std::array<std::int64_t, 4>;

  // Replace or forget the snapshot, moving the epoch if it changed. Caller
  // holds mutex_.
  void Install(std::shared_ptr<const Json> settings, const FileKey& key);
  void Drop();

  std::string root_;
  std::string settings_path_;
  std::mutex mutex_;
  std::shared_ptr<const Json> snapshot_;  // null until a read succeeds
  FileKey snapshot_key_{};
};

class LocalBlobStorage : public FileRepositoryInterface {
 public:
  explicit LocalBlobStorage(std::string root);

  Result<std::string> Save(const std::string& name,
                           const std::string& content) override;
  Result<std::string> Load(const std::string& path) override;

 private:
  std::string root_;
};

// Filesystem helpers shared by the storage backends and the CLI.
Status EnsureDirectory(const std::string& path);
Status WriteWholeFile(const std::string& path, const std::string& data);
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace eco::chronus
