#ifndef SCODED_TABLE_CSV_STREAM_H_
#define SCODED_TABLE_CSV_STREAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/csv.h"
#include "table/csv_scan.h"
#include "table/table.h"

namespace scoded::csv {

/// Options for the out-of-core shard reader.
struct ShardReaderOptions {
  ReadOptions csv;
  /// Maximum data rows per shard table. 0 is invalid.
  size_t shard_rows = 65536;
  /// Bytes read from disk per chunk while scanning.
  size_t buffer_bytes = 1 << 18;

  friend bool operator==(const ShardReaderOptions&, const ShardReaderOptions&) = default;
};

/// A run of whole shards as the first pass indexed it: the bytes that hold
/// them and the rows those bytes must parse into.
struct ShardRange {
  uint64_t begin_byte = 0;  // where the scan of its first shard starts
  uint64_t end_byte = 0;    // where the next shard's scan starts, or file_bytes
  uint64_t first_row = 0;   // global index of its first data row
  uint64_t rows = 0;
  /// The file's byte count at the first pass. A range that ends there is
  /// the last and must meet end of file exactly there.
  uint64_t file_bytes = 0;
};

/// Where the first pass found each shard. A shard's scan starts at the
/// scanner's consumed() offset just past the previous shard's last record
/// terminator (after the header for shard 0), so blank lines belong to the
/// shard that follows them.
struct ShardIndex {
  std::vector<uint64_t> offsets;  // one per shard
  uint64_t file_bytes = 0;
  uint64_t data_rows = 0;
  uint64_t shard_rows = 1;

  uint64_t num_shards() const { return offsets.size(); }
  /// Shards [begin, end) as one range; requires begin <= end <= num_shards().
  ShardRange Range(uint64_t begin, uint64_t end) const;
};

/// A zero-row table of the given columns.
Result<Table> SchemaTable(const std::vector<std::string>& names, const std::vector<bool>& numeric);

/// Parses one indexed range on its own: seeks to its first byte and types
/// and encodes its records straight from the read buffer into shards of at
/// most shard_rows rows, never reading the bytes before it. The range is
/// checked, not trusted: it must hold exactly `range.rows` records of
/// `numeric.size()` fields, and its last record must end exactly at
/// end_byte, or, for the last range, be followed by nothing but blank lines
/// up to end of file at file_bytes. Any mismatch means the file changed
/// since the first pass and fails with kDataLoss.
class ShardRangeReader {
 public:
  /// `names` and `numeric` are the file's columns, one name per type.
  /// Fails kInvalidArgument, before the file is opened or anything is
  /// sized, on a range that cannot be (inverted, past file_bytes, more
  /// rows of numeric.size() fields than its bytes could delimit), no
  /// columns or a zero shard_rows, and kDataLoss when the file is now
  /// shorter than the range.
  static Result<ShardRangeReader> Open(const std::string& path,
                                       const ShardReaderOptions& options,
                                       std::vector<std::string> names, std::vector<bool> numeric,
                                       const ShardRange& range);

  /// Returns the next shard, or nullopt once the range is read and its end
  /// checked.
  Result<std::optional<Table>> Next();

 private:
  ShardRangeReader(std::string path, const ShardReaderOptions& options,
                   std::vector<std::string> names, std::vector<bool> numeric, ShardRange range,
                   RecordScanner scanner);
  Status Changed(const std::string& what) const;

  std::string path_;
  size_t shard_rows_;
  std::vector<std::string> names_;
  std::vector<bool> numeric_;
  ShardRange range_;
  RecordScanner scanner_;
  uint64_t rows_read_ = 0;
  bool done_ = false;
};

/// Streams a CSV file as a sequence of bounded-size shard Tables without
/// ever materialising the whole file as rows.
///
/// Open() makes a first streaming pass over the file that validates the
/// record structure (field counts, quoting), infers the column types from
/// *all* rows and records the shard index. It is ScanTable (csv_scan.h):
/// the scanner, per-record step and type inference csv::ReadString runs
/// on each of its chunks, streamed and keeping nothing but the verdicts,
/// so the types, and any error, are exactly the ones csv::ReadFile would
/// produce, and every shard uses the same schema regardless of which
/// values it happens to contain. Next() then makes a second pass, a
/// ShardRangeReader over every shard, typing and
/// dictionary-encoding each field straight from the read buffer into at
/// most shard_rows rows of columns. Categorical dictionaries are
/// shard-local (first-appearance order within the shard); callers that
/// need global codes remap them (see PairwiseShardSummary in
/// stats/shard_stats.h). The index lets any run of shards be read the same
/// way on its own, in this process or another.
///
/// The two passes assume the file does not change in between. That
/// assumption is verified, not trusted: the range reader checks every
/// record's width, the row count and the byte offset where the rows end,
/// and fails with kDataLoss on any mismatch, so a concurrent truncation or
/// append surfaces as an error instead of silently mis-shaped shards
/// (rows typed under one inference but materialised from another file).
/// A failed read is an error naming the path, never an early end of file.
///
/// Peak memory is O(buffer_bytes + shard_rows * row width), independent of
/// the file size: the scanner holds one read buffer plus the record it cut
/// (RecordScanner), and a shard holds only its typed columns.
class ShardReader {
 public:
  /// Validates, types and indexes `path`; fails with the same errors
  /// csv::ReadFile would produce (missing file, empty input, ragged rows,
  /// bad quoting).
  static Result<ShardReader> Open(const std::string& path,
                                  const ShardReaderOptions& options = {});

  /// Returns the next shard, or nullopt once the file is exhausted.
  Result<std::optional<Table>> Next();

  /// A zero-row table with the full schema; useful for binding constraints
  /// before any shard has been read.
  Result<Table> EmptyTable() const;

  const std::vector<std::string>& column_names() const { return names_; }
  const std::vector<bool>& numeric() const { return numeric_; }
  /// Total data rows in the file (excludes the header), from the first pass.
  size_t num_data_rows() const { return static_cast<size_t>(index_.data_rows); }
  /// Where the first pass found each shard.
  const ShardIndex& index() const { return index_; }

 private:
  ShardReader(std::string path, ShardReaderOptions options, std::vector<std::string> names,
              std::vector<bool> numeric, ShardIndex index);

  std::string path_;
  ShardReaderOptions options_;
  std::vector<std::string> names_;
  std::vector<bool> numeric_;
  ShardIndex index_;
  std::optional<ShardRangeReader> second_;  // opened by the first Next()
};

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_STREAM_H_
