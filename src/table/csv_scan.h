#ifndef SCODED_TABLE_CSV_SCAN_H_
#define SCODED_TABLE_CSV_SCAN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "table/column.h"
#include "table/csv.h"
#include "table/table.h"

namespace scoded::csv {

/// A file open for reading. Reads retry EINTR; any other failed read is an
/// error naming the path and the OS reason, never a silent end of input.
class InputFile {
 public:
  /// kNotFound ("cannot open CSV file '<path>'") when `path` cannot be
  /// opened.
  static Result<InputFile> Open(const std::string& path);

  InputFile(InputFile&& other) noexcept;
  InputFile& operator=(InputFile&&) = delete;
  ~InputFile();

  /// Reads up to `size` bytes into `out`; 0 means end of file. A failed read
  /// (EIO, or EISDIR for a directory) is kDataLoss.
  Result<size_t> Read(char* out, size_t size);

  /// Moves the read position to byte `offset` and returns the file's size
  /// at that moment. Fails kDataLoss when the file cannot be positioned.
  Result<uint64_t> Seek(uint64_t offset);

  /// Reads the rest of the file into one buffer.
  Result<std::string> ReadAll();

 private:
  InputFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// RFC-4180 record scanner that hands out every field as a string_view
/// into its input, without copying the field.
///
/// Semantics: a quoted field may contain newlines, delimiters, and ""
/// quote escapes, and keeps its content verbatim, including whitespace and
/// any text outside the quotes; an unquoted field is whitespace-trimmed.
/// Records end at '\n' or "\r\n" outside quotes; a '\r' before anything
/// else is a literal character. Blank lines are skipped.
///
/// The input is either one in-memory text or a file read through a buffer
/// of `buffer_bytes`. A record cut by the end of a read is carried: its
/// bytes move to the front of the buffer and the next read fills the rest,
/// so every record is contiguous when it is handed out, and scanning
/// resumes where it stopped (quote state, field offsets) instead of
/// starting the record over. The two bytes that need lookahead — '"'
/// inside quotes and '\r' outside — wait for the next read, so splitting
/// the input at any byte offset cannot change the output. A record is
/// carried at most once, and the buffer doubles only while one record
/// leaves it less than half a read of room, so a record longer than
/// `buffer_bytes` still reads in time linear in its length, the buffer
/// stays below twice the longest record plus one read, and input of short
/// records never grows it. Unquoted fields are views into the buffer; a
/// field with quotes is unescaped into a per-record scratch string.
class RecordScanner {
 public:
  /// Scans `text`, which must outlive the scanner.
  RecordScanner(std::string_view text, char delimiter);

  /// Scans `file`, reading `buffer_bytes` (at least 1) at a time.
  RecordScanner(InputFile file, size_t buffer_bytes, char delimiter);

  /// Advances to the next record. Returns false at end of input; fails if
  /// the input ends inside a quoted field or a read fails, after which the
  /// scanner is finished.
  Result<bool> Next();

  /// The fields of the record Next() last returned. The views stay valid
  /// until the next call to Next().
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// Bytes read from the input so far.
  uint64_t bytes_read() const { return bytes_read_; }

  /// Input offset just past the terminator of the record Next() last
  /// returned (0 before the first): where a scan of the records that follow
  /// may start afresh. Blank lines after that record lie beyond it.
  uint64_t consumed() const { return bytes_read_ - input_.size() + record_start_; }

 private:
  enum class Step { kRecord, kNeedInput, kEnd, kUnterminated };

  // A field of the current record: `begin` is an offset from the record's
  // first byte, or into scratch_ when `unescaped`.
  struct Span {
    size_t begin;
    size_t size;
    bool unescaped;
  };

  Step Scan();
  void EndField(size_t end);
  bool IsBlank(size_t end) const;
  Status Refill();

  std::optional<InputFile> file_;  // nullopt for in-memory input
  size_t chunk_bytes_ = 0;
  std::vector<char> buffer_;  // file input: the carried record, then new bytes
  std::string_view input_;    // the text, or the filled part of buffer_
  bool at_eof_ = false;
  uint64_t bytes_read_ = 0;
  uint8_t class_[256] = {};  // byte classes for the delimiter, filled once

  size_t pos_ = 0;            // next byte to scan
  size_t record_start_ = 0;   // first byte of the unfinished record
  size_t field_start_ = 0;    // offset of the current field from record_start_
  bool in_quotes_ = false;
  bool escaped_ = false;      // the current field has quotes; its content is in scratch_
  size_t scratch_field_ = 0;  // where the current field starts in scratch_
  std::string scratch_;
  std::vector<Span> spans_;
  size_t record_begin_ = 0;   // first byte of the record last handed out
  std::vector<std::string_view> fields_;
};

/// Types and encodes one column from its cells, in row order. This is the
/// one place a CSV column's type is decided: the column is numeric when
/// inference is on, at least one cell is non-empty, and every non-empty
/// cell parses as a double (ParseDouble); otherwise it is categorical with
/// a first-appearance dictionary. Empty cells are nulls either way, and
/// each numeric cell is parsed exactly once.
///
/// A chunked read gives every chunk of rows its own builder and appends
/// them in row order (MakeCategorical, Append), which builds the column
/// one builder over all the rows would.
class ColumnBuilder {
 public:
  /// A column of unknown type. With `keep_values` false only the type
  /// verdict is tracked and nothing is stored; with `infer_types` false the
  /// column is categorical.
  static ColumnBuilder Inferring(bool infer_types, bool keep_values);

  /// A column whose type is already known. A numeric column turns a cell
  /// that does not parse into a null.
  static ColumnBuilder Typed(bool numeric);

  void Add(std::string_view cell);

  /// Makes room for `rows` cells in every store the column may still fill
  /// (numbers and their validity unless it is categorical, codes unless it
  /// holds numbers), so filling or appending to it does not regrow them.
  void Reserve(size_t rows);

  /// The type verdict over the cells added so far: numeric, categorical
  /// (a cell that does not parse, or inference off), or neither while
  /// every cell was empty.
  bool numeric() const;
  bool categorical() const { return state_ == State::kCategorical || state_ == State::kIgnored; }

  /// Encodes the cells added so far as categories, as if a non-numeric
  /// cell had come first. Requires a column that stores values. Returns
  /// false, changing nothing, when the column kept numbers: their text is
  /// gone, so the caller rebuilds it as Typed(false) from its rows. An
  /// inferring column that meets its first non-numeric cell after numbers
  /// also drops them and ignores the cells after it, which is cheaper than
  /// keeping every cell's text in case this happens; it too needs the
  /// rebuild.
  bool MakeCategorical();

  /// Appends the column of the rows that follow, freeing it. Both must
  /// store values and agree on the type: categorical, or numeric-or-empty.
  /// A categorical `next` adds its new categories in its own
  /// first-appearance order and has its codes remapped.
  void Append(ColumnBuilder next);

  /// The finished column. Requires a column that stores values and does
  /// not need a rebuild.
  Column Build() &&;

 private:
  // kIgnored is categorical with nothing stored: a verdict-only builder,
  // or one that dropped its numbers and needs a rebuild.
  enum class State { kUndecided, kNumeric, kCategorical, kIgnored };

  // First-appearance dictionary. Its index is searched by the cell's view
  // (heterogeneous lookup), so a category seen before builds no string.
  class Dictionary {
   public:
    int32_t Encode(std::string_view value);
    const std::vector<std::string>& entries() const { return entries_; }
    std::vector<std::string> Release() && { return std::move(entries_); }

   private:
    struct Hash {
      using is_transparent = void;
      size_t operator()(std::string_view value) const {
        return std::hash<std::string_view>{}(value);
      }
    };

    std::vector<std::string> entries_;
    std::unordered_map<std::string, int32_t, Hash, std::equal_to<>> index_;
  };

  ColumnBuilder(State state, bool keep_values) : state_(state), keep_(keep_values) {}

  void AddNumber(std::optional<double> value);

  State state_;
  bool keep_;
  bool any_value_ = false;  // kUndecided: a non-empty cell was seen
  bool has_null_ = false;
  std::vector<double> values_;
  std::vector<bool> valid_;  // materialised at the first null
  std::vector<int32_t> codes_;
  Dictionary dictionary_;
};

/// The per-record step of every whole-input scan: checks each data
/// record's field count and feeds its cells to one inferring ColumnBuilder
/// per column. From the first record of the wrong width on it feeds
/// nothing, since the scan is then bound to fail.
class RowFeed {
 public:
  RowFeed() = default;
  RowFeed(size_t width, const ReadOptions& options, bool keep_values)
      : columns(width, ColumnBuilder::Inferring(options.infer_types, keep_values)) {}

  void Add(const std::vector<std::string_view>& fields);

  /// Data records fed; a ragged record and those after it are not counted.
  size_t rows() const { return rows_; }
  bool ragged() const { return ragged_fields_.has_value(); }

  /// OK, or the error for the first ragged record, counting this feed's
  /// first record as record `first_record` of the input (0 is its first
  /// record, header included).
  Status RaggedRow(size_t first_record) const;

  std::vector<ColumnBuilder> columns;

 private:
  size_t rows_ = 0;
  std::optional<size_t> ragged_fields_;  // field count of record rows_, if ragged
};

/// The column names the first record gives: its fields with a header,
/// otherwise "c0", "c1", ... for as many fields.
std::vector<std::string> ColumnNames(const std::vector<std::string_view>& first, bool has_header);

/// Where a chunked read may cut `text`, which starts at a record boundary:
/// 0, then for each `grain_bytes` stretch after the first, just past the
/// first byte in it that the scanner's byte classes call a newline and
/// that has an even number of '"' bytes before it. Each such newline ends
/// a record outside quotes, so no cut lands inside a quoted field or
/// between '\r' and '\n', and each chunk scans on its own to the records
/// the whole text holds there. A stretch without such a byte adds no cut;
/// with a '\n' delimiter no byte is a newline and the text stays whole.
/// The quote counts run on the pool.
std::vector<size_t> ChunkStarts(std::string_view text, char delimiter, size_t grain_bytes);

/// What the first pass of ShardReader::Open learns about a whole input.
struct TableScan {
  std::vector<std::string> names;
  RowFeed feed;  // verdicts only: the builders keep no values
  /// With shard_rows > 0: for data rows 0, shard_rows, 2 * shard_rows, ...
  /// the scanner's consumed() offset just before that row was scanned.
  std::vector<uint64_t> shard_offsets;
};

/// ShardReader's streaming first pass: runs `scanner` to the end of its
/// input, names the columns from the first record (or "c0", "c1", ...
/// without a header), and feeds every data record to a RowFeed that keeps
/// only the type verdicts. It fails with the errors csv::ReadString gives,
/// in the same precedence: a quote left open at end of input, then "CSV
/// input is empty", then the first ragged row. A positive `shard_rows`
/// also records where every shard of that many rows starts.
Result<TableScan> ScanTable(RecordScanner& scanner, const ReadOptions& options,
                            size_t shard_rows = 0);

/// Builds the columns into a table.
Result<Table> BuildTable(const std::vector<std::string>& names,
                         std::vector<ColumnBuilder> columns);

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_SCAN_H_
