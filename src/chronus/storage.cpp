#include "chronus/storage.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace eco::chronus {
namespace fs = std::filesystem;

namespace {

std::atomic<std::uint64_t> g_settings_epoch{0};

std::array<std::int64_t, 4> KeyOf(const struct stat& st) {
  return {static_cast<std::int64_t>(st.st_dev),
          static_cast<std::int64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_size),
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
              st.st_mtim.tv_nsec};
}

}  // namespace

std::uint64_t SettingsEpoch() {
  return g_settings_epoch.load(std::memory_order_acquire);
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::Error("storage: mkdir failed: " + path + ": " +
                               ec.message());
  return Status::Ok();
}

Status WriteWholeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::Error("storage: cannot open for write: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out.good()) return Status::Error("storage: write failed: " + path);
  return Status::Ok();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Result<std::string>::Error("storage: cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

EtcStorage::EtcStorage(std::string root) : root_(std::move(root)) {
  if (!root_.empty() && root_.back() == '/') root_.pop_back();
  EnsureDirectory(root_);
  settings_path_ = ResolvePath("settings.json");
}

std::string EtcStorage::ResolvePath(const std::string& name) const {
  if (!name.empty() && name.front() == '/') return name;  // already absolute
  return root_ + "/" + name;
}

void EtcStorage::Install(std::shared_ptr<const Json> settings,
                         const FileKey& key) {
  snapshot_ = std::move(settings);
  snapshot_key_ = key;
  g_settings_epoch.fetch_add(1, std::memory_order_acq_rel);
}

void EtcStorage::Drop() {
  if (snapshot_ == nullptr) return;
  snapshot_.reset();
  g_settings_epoch.fetch_add(1, std::memory_order_acq_rel);
}

Result<std::shared_ptr<const Json>> EtcStorage::SettingsSnapshot() {
  using Snapshot = Result<std::shared_ptr<const Json>>;
  FileKey key{};  // no real file has inode 0
  struct stat st {};
  if (::stat(settings_path_.c_str(), &st) == 0) key = KeyOf(st);
  std::lock_guard<std::mutex> lock(mutex_);
  if (snapshot_ != nullptr && key == snapshot_key_) return snapshot_;

  // The bytes read are at least as new as `key`; if they are newer, the
  // next stat() differs and reads again.
  auto text = ReadWholeFile(settings_path_);
  if (!text.ok()) {  // a fresh install (or unreadable): empty, never kept
    Drop();
    return Snapshot(std::make_shared<const Json>(JsonObject{}));
  }
  auto parsed = Json::Parse(*text);
  if (!parsed.ok()) {
    Drop();
    return Snapshot::Error(parsed.message());
  }
  Install(std::make_shared<const Json>(std::move(*parsed)), key);
  return snapshot_;
}

Result<Json> EtcStorage::LoadSettings() {
  auto snapshot = SettingsSnapshot();
  if (!snapshot.ok()) return Result<Json>::Error(snapshot.message());
  return **snapshot;
}

Status EtcStorage::SaveSettings(const Json& settings) {
  const std::string text = settings.Dump(2) + "\n";
  // The snapshot holds what a re-read of the file would give.
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) {
    return Status::Error("storage: settings do not round-trip: " +
                         parsed.message());
  }
  static std::atomic<std::uint64_t> temp_seq{0};
  const std::string temp = settings_path_ + ".tmp." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(temp_seq.fetch_add(1));
  // rename(2) keeps the inode, size and mtime, so the temp file's key is
  // the final one.
  Status written = WriteWholeFile(temp, text);
  struct stat st {};
  if (written.ok() && (::stat(temp.c_str(), &st) != 0 ||
                       std::rename(temp.c_str(), settings_path_.c_str()) != 0)) {
    written = Status::Error("storage: write failed: " + settings_path_);
  }
  if (!written.ok()) {
    std::remove(temp.c_str());
    return written;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Install(std::make_shared<const Json>(std::move(*parsed)), KeyOf(st));
  return Status::Ok();
}

Status EtcStorage::WriteFile(const std::string& name, const std::string& data) {
  return WriteWholeFile(ResolvePath(name), data);
}

Result<std::string> EtcStorage::ReadFile(const std::string& name) {
  return ReadWholeFile(ResolvePath(name));
}

LocalBlobStorage::LocalBlobStorage(std::string root) : root_(std::move(root)) {
  if (!root_.empty() && root_.back() == '/') root_.pop_back();
  EnsureDirectory(root_);
}

Result<std::string> LocalBlobStorage::Save(const std::string& name,
                                           const std::string& content) {
  const std::string path = root_ + "/" + name;
  const Status written = WriteWholeFile(path, content);
  if (!written.ok()) return Result<std::string>::Error(written.message());
  return path;
}

Result<std::string> LocalBlobStorage::Load(const std::string& path) {
  // Paths from Save() are absolute-ish already; bare names resolve under root.
  if (path.find('/') == std::string::npos) {
    return ReadWholeFile(root_ + "/" + path);
  }
  return ReadWholeFile(path);
}

}  // namespace eco::chronus
