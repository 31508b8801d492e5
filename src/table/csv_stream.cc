#include "table/csv_stream.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>

namespace scoded::csv {

Result<Table> SchemaTable(const std::vector<std::string>& names, const std::vector<bool>& numeric) {
  std::vector<ColumnBuilder> columns;
  columns.reserve(numeric.size());
  for (bool is_numeric : numeric) {
    columns.push_back(ColumnBuilder::Typed(is_numeric));
  }
  return BuildTable(names, std::move(columns));
}

ShardRange ShardIndex::Range(uint64_t begin, uint64_t end) const {
  auto offset = [&](uint64_t shard) { return shard < offsets.size() ? offsets[shard] : file_bytes; };
  ShardRange range;
  range.begin_byte = offset(begin);
  range.end_byte = offset(end);
  range.first_row = std::min(begin * shard_rows, data_rows);
  range.rows = std::min(end * shard_rows, data_rows) - range.first_row;
  range.file_bytes = file_bytes;
  return range;
}

ShardRangeReader::ShardRangeReader(std::string path, const ShardReaderOptions& options,
                                   std::vector<std::string> names, std::vector<bool> numeric,
                                   ShardRange range, RecordScanner scanner)
    : path_(std::move(path)),
      shard_rows_(options.shard_rows),
      names_(std::move(names)),
      numeric_(std::move(numeric)),
      range_(range),
      scanner_(std::move(scanner)) {}

Result<ShardRangeReader> ShardRangeReader::Open(const std::string& path,
                                                const ShardReaderOptions& options,
                                                std::vector<std::string> names,
                                                std::vector<bool> numeric,
                                                const ShardRange& range) {
  if (options.shard_rows == 0) {
    return InvalidArgumentError("shard_rows must be positive");
  }
  if (numeric.empty()) {
    return InvalidArgumentError("shard range needs at least one column");
  }
  if (range.begin_byte > range.end_byte || range.end_byte > range.file_bytes) {
    return InvalidArgumentError("shard range [" + std::to_string(range.begin_byte) + ", " +
                                std::to_string(range.end_byte) + ") is not within a " +
                                std::to_string(range.file_bytes) + "-byte file");
  }
  // A record of n fields holds n - 1 delimiters, and every record but the
  // last ends in a terminator, so `rows` records need rows * n - 1 bytes.
  // That bounds rows * n, and with it every column Next() reserves, by the
  // range's bytes. (bytes + 1 wraps only for a 2^64 - 1-byte range, which
  // is then refused.)
  const uint64_t width = numeric.size();
  const uint64_t bytes = range.end_byte - range.begin_byte;
  const uint64_t max_rows = (bytes + 1) / width;
  if (range.rows > max_rows || range.first_row > static_cast<uint64_t>(INT64_MAX) - range.rows) {
    return InvalidArgumentError("a " + std::to_string(bytes) + "-byte shard range cannot hold " +
                                std::to_string(range.rows) + " rows of " + std::to_string(width) +
                                " fields from row " + std::to_string(range.first_row));
  }
  SCODED_ASSIGN_OR_RETURN(InputFile file, InputFile::Open(path));
  SCODED_ASSIGN_OR_RETURN(uint64_t size, file.Seek(range.begin_byte));
  if (size < range.end_byte) {
    return DataLossError("CSV file '" + path + "' changed between passes: it has " +
                         std::to_string(size) + " bytes, and the shard range ends at byte " +
                         std::to_string(range.end_byte));
  }
  // No read needs to be longer than the range itself.
  const size_t chunk = static_cast<size_t>(
      std::min<uint64_t>(range.end_byte - range.begin_byte, options.buffer_bytes));
  RecordScanner scanner(std::move(file), chunk, options.csv.delimiter);
  return ShardRangeReader(path, options, std::move(names), std::move(numeric), range,
                          std::move(scanner));
}

Status ShardRangeReader::Changed(const std::string& what) const {
  return DataLossError("CSV file '" + path_ + "' changed between passes: the shard range at byte " +
                       std::to_string(range_.begin_byte) + " " + what);
}

Result<std::optional<Table>> ShardRangeReader::Next() {
  if (done_) {
    return std::optional<Table>();
  }
  const uint64_t rows = std::min<uint64_t>(shard_rows_, range_.rows - rows_read_);
  std::vector<ColumnBuilder> columns;
  if (rows > 0) {
    columns.reserve(numeric_.size());
    for (bool numeric : numeric_) {
      columns.push_back(ColumnBuilder::Typed(numeric));
      columns.back().Reserve(static_cast<size_t>(rows));
    }
  }
  // Any parse error inside indexed bytes means they changed; a failed read
  // keeps its own status.
  auto next_record = [&]() -> Result<bool> {
    Result<bool> more = scanner_.Next();
    if (!more.ok() && more.status().code() != StatusCode::kDataLoss) {
      return Changed("no longer parses: " + more.status().message());
    }
    return more;
  };
  for (uint64_t r = 0; r < rows; ++r) {
    SCODED_ASSIGN_OR_RETURN(bool more, next_record());
    if (!more) {
      return Changed("ends after " + std::to_string(rows_read_ + r) + " of its " +
                     std::to_string(range_.rows) + " rows");
    }
    const std::vector<std::string_view>& fields = scanner_.fields();
    if (fields.size() != numeric_.size()) {
      return Changed("has a row of " + std::to_string(fields.size()) + " fields, expected " +
                     std::to_string(numeric_.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      columns[c].Add(fields[c]);
    }
  }
  rows_read_ += rows;
  if (rows_read_ == range_.rows) {
    // Every row is read: the range must stop exactly where the first pass
    // said, and the last range must meet end of file at its byte count.
    done_ = true;
    if (range_.end_byte < range_.file_bytes) {
      const uint64_t end = range_.begin_byte + scanner_.consumed();
      if (end != range_.end_byte) {
        return Changed("ends at byte " + std::to_string(end) + ", not at the indexed " +
                       std::to_string(range_.end_byte));
      }
    } else {
      SCODED_ASSIGN_OR_RETURN(bool more, next_record());
      const uint64_t end = range_.begin_byte + scanner_.bytes_read();
      if (more || end != range_.file_bytes) {
        return Changed("runs to byte " + std::to_string(end) + (more ? " or more" : "") +
                       ", but the file had " + std::to_string(range_.file_bytes) + " bytes");
      }
    }
  }
  if (rows == 0) {
    return std::optional<Table>();
  }
  SCODED_ASSIGN_OR_RETURN(Table table, BuildTable(names_, std::move(columns)));
  return std::optional<Table>(std::move(table));
}

ShardReader::ShardReader(std::string path, ShardReaderOptions options,
                         std::vector<std::string> names, std::vector<bool> numeric,
                         ShardIndex index)
    : path_(std::move(path)),
      options_(std::move(options)),
      names_(std::move(names)),
      numeric_(std::move(numeric)),
      index_(std::move(index)) {}

Result<ShardReader> ShardReader::Open(const std::string& path, const ShardReaderOptions& options) {
  if (options.shard_rows == 0) {
    return InvalidArgumentError("shard_rows must be positive");
  }
  SCODED_ASSIGN_OR_RETURN(InputFile file, InputFile::Open(path));
  RecordScanner scanner(std::move(file), options.buffer_bytes, options.csv.delimiter);
  SCODED_ASSIGN_OR_RETURN(TableScan scan, ScanTable(scanner, options.csv, options.shard_rows));
  std::vector<bool> numeric;
  for (const ColumnBuilder& column : scan.feed.columns) {
    numeric.push_back(column.numeric());
  }
  ShardIndex index{std::move(scan.shard_offsets), scanner.bytes_read(), scan.feed.rows(),
                   options.shard_rows};
  return ShardReader(path, options, std::move(scan.names), std::move(numeric), std::move(index));
}

Result<std::optional<Table>> ShardReader::Next() {
  if (!second_.has_value()) {
    SCODED_ASSIGN_OR_RETURN(
        ShardRangeReader second,
        ShardRangeReader::Open(path_, options_, names_, numeric_,
                               index_.Range(0, index_.num_shards())));
    second_.emplace(std::move(second));
  }
  return second_->Next();
}

Result<Table> ShardReader::EmptyTable() const { return SchemaTable(names_, numeric_); }

}  // namespace scoded::csv
