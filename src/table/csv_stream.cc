#include "table/csv_stream.h"

#include <string_view>
#include <utility>

namespace scoded::csv {

ShardReader::ShardReader(std::string path, ShardReaderOptions options,
                         std::vector<std::string> names, std::vector<bool> numeric,
                         size_t num_data_rows, uint64_t total_bytes, RecordScanner scanner)
    : path_(std::move(path)),
      options_(std::move(options)),
      names_(std::move(names)),
      numeric_(std::move(numeric)),
      num_data_rows_(num_data_rows),
      total_bytes_(total_bytes),
      scanner_(std::move(scanner)) {}

Result<ShardReader> ShardReader::Open(const std::string& path, const ShardReaderOptions& options) {
  if (options.shard_rows == 0) {
    return InvalidArgumentError("shard_rows must be positive");
  }
  SCODED_ASSIGN_OR_RETURN(InputFile first_file, InputFile::Open(path));
  RecordScanner first(std::move(first_file), options.buffer_bytes, options.csv.delimiter);
  SCODED_ASSIGN_OR_RETURN(TableScan scan, ScanTable(first, options.csv, /*keep_values=*/false));
  std::vector<bool> numeric;
  for (const ColumnBuilder& column : scan.columns) {
    numeric.push_back(column.numeric());
  }
  SCODED_ASSIGN_OR_RETURN(InputFile second_file, InputFile::Open(path));
  RecordScanner second(std::move(second_file), options.buffer_bytes, options.csv.delimiter);
  return ShardReader(path, options, std::move(scan.names), std::move(numeric), scan.data_rows,
                     first.bytes_read(), std::move(second));
}

Result<std::optional<Table>> ShardReader::Next() {
  std::vector<ColumnBuilder> columns;
  for (bool numeric : numeric_) {
    columns.push_back(ColumnBuilder::Typed(numeric));
  }
  size_t rows = 0;
  while (rows < options_.shard_rows) {
    SCODED_ASSIGN_OR_RETURN(bool more, scanner_.Next());
    if (!more) {
      break;
    }
    if (options_.csv.has_header && !header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    const std::vector<std::string_view>& fields = scanner_.fields();
    if (fields.size() != names_.size()) {
      return InternalError("BuildTableFromRecords: record " + std::to_string(rows) + " has " +
                           std::to_string(fields.size()) + " fields, expected " +
                           std::to_string(names_.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      columns[c].Add(fields[c]);
    }
    ++rows;
  }
  if (rows == 0) {
    // Exhausted: the second pass must have seen exactly the file the first
    // pass typed. A concurrent truncation, append, or rewrite shows up as
    // a byte- or row-count mismatch here rather than as silently
    // mis-shaped shards.
    if (scanner_.bytes_read() != total_bytes_ || rows_yielded_ != num_data_rows_) {
      return DataLossError(
          "CSV file '" + path_ + "' changed between passes: first pass saw " +
          std::to_string(num_data_rows_) + " data rows in " + std::to_string(total_bytes_) +
          " bytes, second pass saw " + std::to_string(rows_yielded_) + " rows in " +
          std::to_string(scanner_.bytes_read()) + " bytes");
    }
    return std::optional<Table>();
  }
  rows_yielded_ += rows;
  SCODED_ASSIGN_OR_RETURN(Table table, BuildTable(names_, std::move(columns)));
  return std::optional<Table>(std::move(table));
}

Result<Table> ShardReader::EmptyTable() const {
  std::vector<ColumnBuilder> columns;
  for (bool numeric : numeric_) {
    columns.push_back(ColumnBuilder::Typed(numeric));
  }
  return BuildTable(names_, std::move(columns));
}

}  // namespace scoded::csv
