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
/// The input is either one in-memory text or a file read `buffer_bytes` at
/// a time. A record cut by the end of a read is carried: its bytes move to
/// the front of the buffer and the next read lands after them, so every
/// record is contiguous when it is handed out, and scanning resumes where
/// it stopped (quote state, field offsets) instead of starting the record
/// over. The two bytes that need lookahead — '"' inside quotes and '\r'
/// outside — wait for the next read, so splitting the input at any byte
/// offset cannot change the output. A record is carried at most once, and
/// the buffer doubles while one record outgrows it, so a record longer than
/// `buffer_bytes` still reads in time linear in its length, and the buffer
/// stays below twice the longest record plus one read. Unquoted fields are
/// views into the buffer; a field with quotes is unescaped into a
/// per-record scratch string.
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

  /// The type verdict over the cells added so far.
  bool numeric() const;

  /// True when an inferring column met its first non-numeric cell after
  /// keeping numeric values. It then drops them and ignores later cells:
  /// the caller rebuilds it as Typed(false) from its first row, which is
  /// cheaper than keeping every cell's text in case this happens.
  bool needs_rebuild() const { return needs_rebuild_; }

  /// The finished column. Requires a column that stores values and does
  /// not need a rebuild.
  Column Build() &&;

 private:
  enum class State { kUndecided, kNumeric, kCategorical, kIgnored };

  // First-appearance dictionary. Its index is searched by the cell's view
  // (heterogeneous lookup), so a category seen before builds no string.
  class Dictionary {
   public:
    int32_t Encode(std::string_view value);
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
  bool needs_rebuild_ = false;
  bool has_null_ = false;
  std::vector<double> values_;
  std::vector<bool> valid_;  // materialised at the first null
  std::vector<int32_t> codes_;
  Dictionary dictionary_;
};

/// What one pass over a whole CSV input learns.
struct TableScan {
  std::vector<std::string> names;
  std::vector<ColumnBuilder> columns;  // inferring builders, one per column
  size_t data_rows = 0;
};

/// Runs `scanner` to the end of its input: names the columns from the first
/// record (or "c0", "c1", ... without a header), checks every data record's
/// field count, and feeds each cell to an inferring column builder. This is
/// the pass csv::ReadString and ShardReader::Open share, so they fail with
/// the same errors in the same precedence: a quote left open at end of
/// input, then "CSV input is empty", then the first ragged row.
Result<TableScan> ScanTable(RecordScanner& scanner, const ReadOptions& options,
                            bool keep_values);

/// Builds the columns into a table.
Result<Table> BuildTable(const std::vector<std::string>& names,
                         std::vector<ColumnBuilder> columns);

}  // namespace scoded::csv

#endif  // SCODED_TABLE_CSV_SCAN_H_
