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
///
/// The read runs on the worker pool (common/parallel.h): after the first
/// record names the columns, the rest is cut into chunks of about 256 KiB
/// that start at record boundaries (ChunkStarts in csv_scan.h), each chunk
/// is scanned and typed on its own into columns the calling thread sized,
/// and the calling thread merges the chunks in order.
/// The table, and any error, is the same at every thread count and equals
/// a one-chunk scan of the whole text.
Result<Table> ReadString(std::string_view text, const ReadOptions& options = {});

/// Reads a CSV file from disk into memory and parses it as ReadString
/// does, freeing the text before the chunks are merged.
Result<Table> ReadFile(const std::string& path, const ReadOptions& options = {});

/// Serialises a table as CSV (header + rows), one field per cell as
/// Column::ValueToString renders it. Values containing the delimiter,
/// quotes, newlines or edge whitespace are quoted.
std::string WriteString(const Table& table, char delimiter = ',');

/// Writes a table to `path`; returns an error if the file cannot be opened.
Status WriteFile(const Table& table, const std::string& path, char delimiter = ',');

namespace internal {

/// ReadString cutting its input at `grain_bytes` instead of the fixed grain,
/// so tests can put chunk edges anywhere. Every grain reads the same table.
Result<Table> ReadString(std::string_view text, const ReadOptions& options, size_t grain_bytes);

}  // namespace internal

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_H_
