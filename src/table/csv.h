#ifndef SCODED_TABLE_CSV_H_
#define SCODED_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "table/table.h"

namespace scoded::csv {

/// Options controlling CSV parsing.
struct ReadOptions {
  char delimiter = ',';
  /// When true (default), the first row names the columns; otherwise
  /// columns are named "c0", "c1", ...
  bool has_header = true;
  /// A column is inferred numeric when every non-empty cell parses as a
  /// double; otherwise categorical. Empty cells are nulls.
  bool infer_types = true;

  friend bool operator==(const ReadOptions&, const ReadOptions&) = default;
};

/// Parses a CSV document held in memory. Rows with a different field count
/// than the header produce an error.
Result<Table> ReadString(std::string_view text, const ReadOptions& options = {});

/// Reads and parses a CSV file from disk.
Result<Table> ReadFile(const std::string& path, const ReadOptions& options = {});

/// Serialises a table as CSV (header + rows). Values containing the
/// delimiter, quotes, or newlines are quoted.
std::string WriteString(const Table& table, char delimiter = ',');

/// Writes a table to `path`; returns an error if the file cannot be opened.
Status WriteFile(const Table& table, const std::string& path, char delimiter = ',');

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_H_
