// MiniDb — a small file-backed table store standing in for the paper's
// SQLite repository (no external dependency available here; DESIGN.md
// records the substitution).
//
// Data model: named tables of string-valued rows with an auto-increment "id"
// column. Persistence is a single append-log text file of CSV records. Flush
// appends the rows inserted since the last flush in one write(2); an Update,
// a new column or table, or a file this instance has neither written nor
// read cleanly makes it rewrite the whole file atomically instead (tmp file +
// rename), which also compacts it. Open drops a torn tail, the bytes after
// the last complete record that an interrupted append left, and the next
// Flush rewrites. One writer per file: two instances flushing the same path
// overwrite each other's rows. Good for thousands of rows — plenty for
// benchmark metadata.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace eco::chronus {

using DbRow = std::map<std::string, std::string>;

class MiniDb {
 public:
  // Empty path = in-memory only (Flush becomes a no-op).
  explicit MiniDb(std::string path = "");

  // Loads an existing file; missing file is fine (fresh database).
  Status Open();
  // Persists every change since the last Flush: appends new rows, or
  // rewrites the file atomically (see the header comment for when).
  Status Flush();

  // Inserts, assigning the auto-increment id (also stored in the row under
  // "id"). Returns the id.
  Result<int> Insert(const std::string& table, DbRow row);
  // Overwrites the row with this id; error if absent.
  Status Update(const std::string& table, int id, DbRow row);

  [[nodiscard]] Result<std::vector<DbRow>> SelectAll(const std::string& table) const;
  [[nodiscard]] Result<DbRow> SelectById(const std::string& table, int id) const;
  [[nodiscard]] std::vector<DbRow> Where(const std::string& table,
                                         const std::string& column,
                                         const std::string& value) const;

  [[nodiscard]] std::vector<std::string> Tables() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Table {
    std::vector<std::string> columns;  // union of seen keys, insertion order
    std::vector<DbRow> rows;
    int next_id = 1;
    // What the file holds: rows[0, stored_rows) under the first
    // stored_columns columns (both only grow between rewrites).
    std::size_t stored_rows = 0;
    std::size_t stored_columns = 0;
  };

  Status Rewrite();
  Status Append();

  std::string path_;
  std::map<std::string, Table> tables_;
  // The file's contents are unknown or stale: the next Flush rewrites it.
  bool must_rewrite_ = true;
  // The section the file ends in: rows appended to this table under this
  // header need no new T/H records.
  std::string tail_table_;
  std::vector<std::string> tail_header_;
};

}  // namespace eco::chronus
