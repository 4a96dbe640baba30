#include "chronus/minidb.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/strings.hpp"

namespace eco::chronus {
namespace {

void AppendRecord(std::string& out, const CsvRow& cells) {
  out += CsvEncodeRow(cells);
  out.push_back('\n');
}

void AppendSection(std::string& out, const std::string& table,
                   const std::vector<std::string>& columns) {
  AppendRecord(out, {"T", table});
  CsvRow header;
  header.reserve(columns.size() + 1);
  header.push_back("H");
  header.insert(header.end(), columns.begin(), columns.end());
  AppendRecord(out, header);
}

void AppendRow(std::string& out, const std::vector<std::string>& columns,
               const DbRow& row) {
  CsvRow cells;
  cells.reserve(columns.size() + 1);
  cells.push_back("R");
  for (const auto& col : columns) {
    const auto it = row.find(col);
    cells.push_back(it == row.end() ? "" : it->second);
  }
  AppendRecord(out, cells);
}

// One past the newline that ends the last complete record (a newline outside
// quotes); anything after it is a torn append.
std::size_t CompleteRecordsEnd(const std::string& text) {
  bool in_quotes = false;
  std::size_t end = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      in_quotes = !in_quotes;
    } else if (text[i] == '\n' && !in_quotes) {
      end = i + 1;
    }
  }
  return end;
}

// Writes all of `text` to `path` opened with `flags`.
bool WriteAll(const std::string& path, int flags, const std::string& text) {
  const int fd = ::open(path.c_str(), flags | O_WRONLY | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  return ::close(fd) == 0 && done == text.size();
}

}  // namespace

MiniDb::MiniDb(std::string path) : path_(std::move(path)) {}

// On-disk format: one CSV document where every record carries a type tag in
// its first cell — "T",<table-name> starts a table section, "H",<columns...>
// is its header, "R",<cells...> is a data row. Because everything goes
// through the CSV codec, cell values containing newlines, commas, quotes, or
// text that looks like a section marker round-trip safely (the property
// fuzzer caught a line-oriented earlier format tripping over exactly those).
// Appends may declare a table again; its columns are the union of its
// sections' headers, and each R record reads by its own section's header.
Status MiniDb::Open() {
  if (path_.empty()) return Status::Ok();
  must_rewrite_ = true;
  std::ifstream in(path_);
  if (!in) return Status::Ok();  // fresh database
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  const std::size_t complete = CompleteRecordsEnd(text);
  const bool torn = complete != text.size();
  text.resize(complete);

  auto parsed = CsvParse(text);
  if (!parsed.ok()) return Status::Error("minidb: " + parsed.message());

  tables_.clear();
  tail_table_.clear();
  tail_header_.clear();
  Table* current = nullptr;
  for (const CsvRow& record : *parsed) {
    if (record.empty()) continue;
    const std::string& tag = record[0];
    if (tag == "T") {
      if (record.size() < 2) return Status::Error("minidb: bad table record");
      current = &tables_[record[1]];
      tail_table_ = record[1];
      tail_header_.clear();
      continue;
    }
    if (current == nullptr) {
      return Status::Error("minidb: record before any table declaration");
    }
    if (tag == "H") {
      tail_header_.assign(record.begin() + 1, record.end());
      for (const auto& col : tail_header_) {
        if (std::find(current->columns.begin(), current->columns.end(), col) ==
            current->columns.end()) {
          current->columns.push_back(col);
        }
      }
      continue;
    }
    if (tag != "R") return Status::Error("minidb: unknown record tag " + tag);
    DbRow row;
    for (std::size_t c = 1; c < record.size() && c - 1 < tail_header_.size();
         ++c) {
      row[tail_header_[c - 1]] = record[c];
    }
    long long id = 0;
    if (ParseInt64(row["id"], id)) {
      current->next_id = std::max(current->next_id, static_cast<int>(id) + 1);
    }
    current->rows.push_back(std::move(row));
  }
  for (auto& [name, table] : tables_) {
    (void)name;
    table.stored_rows = table.rows.size();
    table.stored_columns = table.columns.size();
  }
  must_rewrite_ = torn;
  return Status::Ok();
}

Status MiniDb::Flush() {
  if (path_.empty()) return Status::Ok();
  bool rewrite = must_rewrite_;
  for (const auto& [name, table] : tables_) {
    (void)name;
    rewrite = rewrite || table.columns.size() != table.stored_columns;
  }
  return rewrite ? Rewrite() : Append();
}

Status MiniDb::Rewrite() {
  std::string text;
  for (const auto& [name, table] : tables_) {
    AppendSection(text, name, table.columns);
    for (const auto& row : table.rows) AppendRow(text, table.columns, row);
  }
  const std::string tmp = path_ + ".tmp";
  if (!WriteAll(tmp, O_CREAT | O_TRUNC, text)) {
    return Status::Error("minidb: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::Error("minidb: rename failed: " + path_);
  }
  for (auto& [name, table] : tables_) {
    (void)name;
    table.stored_rows = table.rows.size();
    table.stored_columns = table.columns.size();
  }
  must_rewrite_ = false;
  tail_table_ = tables_.empty() ? "" : tables_.rbegin()->first;
  tail_header_ = tables_.empty() ? std::vector<std::string>{}
                                 : tables_.rbegin()->second.columns;
  return Status::Ok();
}

Status MiniDb::Append() {
  std::string text;
  for (auto& [name, table] : tables_) {
    if (table.stored_rows == table.rows.size()) continue;
    if (name != tail_table_ || table.columns != tail_header_) {
      AppendSection(text, name, table.columns);
      tail_table_ = name;
      tail_header_ = table.columns;
    }
    for (; table.stored_rows < table.rows.size(); ++table.stored_rows) {
      AppendRow(text, table.columns, table.rows[table.stored_rows]);
    }
  }
  if (text.empty() || WriteAll(path_, O_APPEND, text)) return Status::Ok();
  // A failed or short append leaves the file's tail unknown: the file is
  // rewritten whole, now or, if that fails too, at the next Flush.
  must_rewrite_ = true;
  return Rewrite();
}

Result<int> MiniDb::Insert(const std::string& table_name, DbRow row) {
  Table& table = tables_[table_name];
  const int id = table.next_id++;
  row["id"] = std::to_string(id);
  for (const auto& [key, value] : row) {
    (void)value;
    if (std::find(table.columns.begin(), table.columns.end(), key) ==
        table.columns.end()) {
      table.columns.push_back(key);
    }
  }
  table.rows.push_back(std::move(row));
  return id;
}

Status MiniDb::Update(const std::string& table_name, int id, DbRow row) {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) return Status::Error("minidb: no table " + table_name);
  for (auto& existing : it->second.rows) {
    long long row_id = 0;
    const auto id_it = existing.find("id");
    if (id_it != existing.end() && ParseInt64(id_it->second, row_id) &&
        row_id == id) {
      row["id"] = std::to_string(id);
      for (const auto& [key, value] : row) {
        (void)value;
        if (std::find(it->second.columns.begin(), it->second.columns.end(),
                      key) == it->second.columns.end()) {
          it->second.columns.push_back(key);
        }
      }
      existing = std::move(row);
      must_rewrite_ = true;
      return Status::Ok();
    }
  }
  return Status::Error("minidb: no row id " + std::to_string(id));
}

Result<std::vector<DbRow>> MiniDb::SelectAll(const std::string& table) const {
  const auto it = tables_.find(table);
  if (it == tables_.end()) return std::vector<DbRow>{};
  return it->second.rows;
}

Result<DbRow> MiniDb::SelectById(const std::string& table, int id) const {
  const auto rows = Where(table, "id", std::to_string(id));
  if (rows.empty()) {
    return Result<DbRow>::Error("minidb: no row id " + std::to_string(id) +
                                " in " + table);
  }
  return rows.front();
}

std::vector<DbRow> MiniDb::Where(const std::string& table,
                                 const std::string& column,
                                 const std::string& value) const {
  std::vector<DbRow> out;
  const auto it = tables_.find(table);
  if (it == tables_.end()) return out;
  for (const auto& row : it->second.rows) {
    const auto cell = row.find(column);
    if (cell != row.end() && cell->second == value) out.push_back(row);
  }
  return out;
}

std::vector<std::string> MiniDb::Tables() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    out.push_back(name);
  }
  return out;
}

}  // namespace eco::chronus
