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

/// Streams a CSV file as a sequence of bounded-size shard Tables without
/// ever materialising the whole file as rows.
///
/// Open() makes a first streaming pass over the file that validates the
/// record structure (field counts, quoting) and infers the column types
/// from *all* rows. It is the same scan and the same type inference
/// csv::ReadString runs (ScanTable in csv_scan.h, with nothing kept but the
/// verdicts), so the types, and any error, are exactly the ones
/// csv::ReadFile would produce, and every shard uses the same schema
/// regardless of which values it happens to contain. Next() then makes a
/// second pass, typing and dictionary-encoding each field straight from the
/// read buffer into at most shard_rows rows of columns. Categorical
/// dictionaries are shard-local (first-appearance order within the shard);
/// callers that need global codes remap them (see PairwiseShardSummary in
/// stats/shard_stats.h).
///
/// The two passes assume the file does not change in between. That
/// assumption is verified, not trusted: the final Next() compares the
/// second pass's byte and data-row totals against the first pass's and
/// fails with kDataLoss on any mismatch, so a concurrent truncation or
/// append surfaces as an error instead of silently mis-shaped shards
/// (rows typed under one inference but materialised from another file).
/// A failed read is an error naming the path, never an early end of file.
///
/// Peak memory is O(buffer_bytes + shard_rows * row width), independent of
/// the file size: the scanner holds one read buffer plus the record it cut
/// (RecordScanner), and a shard holds only its typed columns.
class ShardReader {
 public:
  /// Validates and types `path`; fails with the same errors csv::ReadFile
  /// would produce (missing file, empty input, ragged rows, bad quoting).
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
  size_t num_data_rows() const { return num_data_rows_; }

 private:
  ShardReader(std::string path, ShardReaderOptions options, std::vector<std::string> names,
              std::vector<bool> numeric, size_t num_data_rows, uint64_t total_bytes,
              RecordScanner scanner);

  std::string path_;
  ShardReaderOptions options_;
  std::vector<std::string> names_;
  std::vector<bool> numeric_;
  size_t num_data_rows_ = 0;
  uint64_t total_bytes_ = 0;  // bytes the first pass consumed

  RecordScanner scanner_;     // the second pass
  bool header_skipped_ = false;
  size_t rows_yielded_ = 0;   // data rows handed out by Next() so far
};

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_STREAM_H_
