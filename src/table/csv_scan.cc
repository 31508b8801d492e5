#include "table/csv_scan.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace scoded::csv {

// ---------------------------------------------------------------------------
// InputFile

Result<InputFile> InputFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open CSV file '" + path + "'");
  }
  return InputFile(fd, path);
}

InputFile::InputFile(InputFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

InputFile::~InputFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<size_t> InputFile::Read(char* out, size_t size) {
  while (true) {
    ssize_t got = ::read(fd_, out, size);
    if (got >= 0) {
      return static_cast<size_t>(got);
    }
    int error = errno;
    if (error != EINTR) {
      return DataLossError("cannot read CSV file '" + path_ + "': " + ErrnoMessage(error));
    }
  }
}

Result<uint64_t> InputFile::Seek(uint64_t offset) {
  struct stat info;
  if (::fstat(fd_, &info) != 0 || offset > static_cast<uint64_t>(INT64_MAX) ||
      ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    return DataLossError("cannot seek CSV file '" + path_ + "' to byte " + std::to_string(offset) +
                         ": " + ErrnoMessage(errno));
  }
  return static_cast<uint64_t>(info.st_size);
}

Result<std::string> InputFile::ReadAll() {
  // Sized from fstat plus one byte, so a regular file is read into a buffer
  // that never grows; pipes and files growing underneath grow it by doubling.
  struct stat info;
  size_t expected = ::fstat(fd_, &info) == 0 && info.st_size > 0
                        ? static_cast<size_t>(info.st_size)
                        : 0;
  std::string text(expected + 1, '\0');
  size_t filled = 0;
  while (true) {
    if (filled == text.size()) {
      text.resize(2 * text.size());
    }
    SCODED_ASSIGN_OR_RETURN(size_t got, Read(text.data() + filled, text.size() - filled));
    if (got == 0) {
      break;
    }
    filled += got;
  }
  text.resize(filled);
  return text;
}

// ---------------------------------------------------------------------------
// RecordScanner

namespace {

// Byte classes, in rising precedence when one byte is several things (a
// delimiter of '"' is a quote; a delimiter of '\n' never ends a record).
// Everything below kQuote is plain content in an unquoted field.
enum : uint8_t { kContent, kCarriageReturn, kQuote, kDelimiter, kNewline };

void FillClasses(uint8_t* classes, char delimiter) {
  std::fill(classes, classes + 256, kContent);
  classes[static_cast<unsigned char>('\r')] = kCarriageReturn;
  classes[static_cast<unsigned char>('\n')] = kNewline;
  classes[static_cast<unsigned char>(delimiter)] = kDelimiter;
  classes[static_cast<unsigned char>('"')] = kQuote;
}

}  // namespace

RecordScanner::RecordScanner(std::string_view text, char delimiter)
    : input_(text), at_eof_(true), bytes_read_(text.size()) {
  FillClasses(class_, delimiter);
}

RecordScanner::RecordScanner(InputFile file, size_t buffer_bytes, char delimiter)
    : file_(std::move(file)), chunk_bytes_(std::max<size_t>(1, buffer_bytes)) {
  FillClasses(class_, delimiter);
}

Result<bool> RecordScanner::Next() {
  spans_.clear();
  scratch_.clear();
  fields_.clear();
  while (true) {
    switch (Scan()) {
      case Step::kRecord:
        for (const Span& span : spans_) {
          const char* base = span.unescaped ? scratch_.data() : input_.data() + record_begin_;
          fields_.emplace_back(base + span.begin, span.size);
        }
        return true;
      case Step::kEnd:
        return false;
      case Step::kUnterminated:
        return InvalidArgumentError("CSV input ends inside a quoted field");
      case Step::kNeedInput:
        SCODED_RETURN_IF_ERROR(Refill());
        break;
    }
  }
}

RecordScanner::Step RecordScanner::Scan() {
  const char* data = input_.data();
  const size_t end = input_.size();
  size_t p = pos_;
  while (true) {
    if (in_quotes_) {
      // Quoted content runs to the next '"', which either escapes a quote
      // ("") or closes the quotes; telling which needs the byte after it.
      const void* quote = std::memchr(data + p, '"', end - p);
      size_t q = quote == nullptr ? end : static_cast<size_t>(static_cast<const char*>(quote) - data);
      scratch_.append(data + p, q - p);
      p = q;
      if (p == end || (p + 1 == end && !at_eof_)) {
        break;
      }
      if (p + 1 < end && data[p + 1] == '"') {
        scratch_.push_back('"');
        p += 2;
      } else {
        in_quotes_ = false;
        ++p;
      }
      continue;
    }
    if (!escaped_) {
      // An unquoted field is a trimmed view of its bytes: skip to the next
      // quote, delimiter or newline.
      while (p < end && class_[static_cast<unsigned char>(data[p])] < kQuote) {
        ++p;
      }
      if (p == end) {
        break;
      }
    } else {
      if (p == end) {
        break;
      }
      uint8_t cls = class_[static_cast<unsigned char>(data[p])];
      if (cls == kCarriageReturn) {
        // Outside the quotes of an escaped field a '\r' is content unless it
        // belongs to the record terminator ("\r\n", or '\r' at end of input).
        if (p + 1 == end && !at_eof_) {
          break;
        }
        if (p + 1 < end && data[p + 1] != '\n') {
          scratch_.push_back('\r');
        }
        ++p;
        continue;
      }
      if (cls == kContent) {
        scratch_.push_back(data[p++]);
        continue;
      }
    }
    // At a quote, delimiter or newline outside quotes.
    uint8_t cls = class_[static_cast<unsigned char>(data[p])];
    if (cls == kQuote) {
      if (!escaped_) {
        // The bytes before the quote are content too, but what follows is no
        // longer contiguous with them: from here the field is unescaped.
        escaped_ = true;
        scratch_field_ = scratch_.size();
        size_t begin = record_start_ + field_start_;
        scratch_.append(data + begin, p - begin);
      }
      in_quotes_ = true;
      ++p;
      continue;
    }
    if (cls == kDelimiter) {
      EndField(p);
      ++p;
      field_start_ = p - record_start_;
      continue;
    }
    // A newline ends the record; a blank one is skipped.
    bool blank = IsBlank(p);
    if (!blank) {
      EndField(p);
      record_begin_ = record_start_;
    }
    ++p;
    record_start_ = p;
    field_start_ = 0;
    if (!blank) {
      pos_ = p;
      return Step::kRecord;
    }
  }
  pos_ = p;
  if (!at_eof_) {
    return Step::kNeedInput;
  }
  // End of input (the loop only stops short of it to wait for more bytes).
  if (in_quotes_) {
    return Step::kUnterminated;
  }
  if (IsBlank(end)) {
    return Step::kEnd;
  }
  EndField(end);
  record_begin_ = record_start_;
  record_start_ = end;
  field_start_ = 0;
  return Step::kRecord;
}

bool RecordScanner::IsBlank(size_t end) const {
  // A record whose only byte is the '\r' of its terminator is blank too.
  size_t length = end - record_start_;
  return length == 0 ||
         (length == 1 && input_[record_start_] == '\r' &&
          class_[static_cast<unsigned char>('\r')] == kCarriageReturn);
}

void RecordScanner::EndField(size_t end) {
  if (escaped_) {
    spans_.push_back({scratch_field_, scratch_.size() - scratch_field_, true});
    escaped_ = false;
    return;
  }
  size_t begin = record_start_ + field_start_;
  std::string_view field = Trim(input_.substr(begin, end - begin));
  spans_.push_back({static_cast<size_t>(field.data() - input_.data()) - record_start_,
                    field.size(), false});
}

Status RecordScanner::Refill() {
  SCODED_DCHECK(file_.has_value());
  size_t filled = input_.size();
  if (filled + chunk_bytes_ > buffer_.size()) {
    // Carry the unfinished record to the front and read into the rest. A
    // record is moved at most once (after that it starts the buffer), and
    // the buffer doubles only when the record leaves less than half a read
    // of room, so a record of any length costs time linear in its length
    // while short records keep the buffer at one read.
    size_t carry = filled - record_start_;
    if (record_start_ > 0 && carry > 0) {
      std::memmove(buffer_.data(), buffer_.data() + record_start_, carry);
    }
    pos_ -= record_start_;
    record_start_ = 0;
    filled = carry;
    if (carry + (chunk_bytes_ + 1) / 2 > buffer_.size()) {
      buffer_.resize(std::max(carry + chunk_bytes_, 2 * buffer_.size()));
    }
  }
  SCODED_ASSIGN_OR_RETURN(size_t got,
                          file_->Read(buffer_.data() + filled, buffer_.size() - filled));
  bytes_read_ += got;
  at_eof_ = got == 0;
  input_ = std::string_view(buffer_.data(), filled + got);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// ColumnBuilder

ColumnBuilder ColumnBuilder::Inferring(bool infer_types, bool keep_values) {
  if (infer_types) {
    return ColumnBuilder(State::kUndecided, keep_values);
  }
  return ColumnBuilder(keep_values ? State::kCategorical : State::kIgnored, keep_values);
}

ColumnBuilder ColumnBuilder::Typed(bool numeric) {
  return ColumnBuilder(numeric ? State::kNumeric : State::kCategorical, true);
}

void ColumnBuilder::Reserve(size_t rows) {
  if (state_ == State::kIgnored) {
    return;
  }
  if (!numeric()) {
    codes_.reserve(rows);
  }
  if (state_ != State::kCategorical) {
    values_.reserve(rows);
    valid_.reserve(rows);
  }
}

void ColumnBuilder::Add(std::string_view cell) {
  switch (state_) {
    case State::kIgnored:
      return;
    case State::kCategorical:
      codes_.push_back(cell.empty() ? -1 : dictionary_.Encode(cell));
      return;
    case State::kNumeric:
      AddNumber(cell.empty() ? std::nullopt : ParseDouble(cell));
      return;
    case State::kUndecided:
      break;
  }
  if (cell.empty()) {
    AddNumber(std::nullopt);
    return;
  }
  if (std::optional<double> value = ParseDouble(cell)) {
    any_value_ = true;
    AddNumber(value);
    return;
  }
  // The first non-numeric cell makes the column categorical.
  if (keep_ && MakeCategorical()) {
    Add(cell);
    return;
  }
  values_ = {};
  valid_ = {};
  state_ = State::kIgnored;
}

bool ColumnBuilder::MakeCategorical() {
  if (state_ == State::kCategorical) {
    return true;
  }
  if (state_ != State::kUndecided || any_value_) {
    return false;
  }
  // Only nulls so far, and those encode the same either way.
  state_ = State::kCategorical;
  codes_.assign(values_.size(), -1);
  values_ = {};
  valid_ = {};
  has_null_ = false;
  return true;
}

void ColumnBuilder::Append(ColumnBuilder next) {
  SCODED_CHECK(keep_ && next.keep_ && !categorical() == !next.categorical());
  SCODED_CHECK(state_ != State::kIgnored && next.state_ != State::kIgnored);
  if (state_ == State::kCategorical) {
    // remap[code + 1] is next's code `code` in this dictionary; null stays -1.
    std::vector<int32_t> remap = {-1};
    remap.reserve(next.dictionary_.entries().size() + 1);
    for (const std::string& entry : next.dictionary_.entries()) {
      remap.push_back(dictionary_.Encode(entry));
    }
    codes_.reserve(codes_.size() + next.codes_.size());
    for (int32_t code : next.codes_) {
      codes_.push_back(remap[static_cast<size_t>(code + 1)]);
    }
    return;
  }
  any_value_ = any_value_ || next.any_value_;
  if (next.has_null_ && !has_null_) {
    has_null_ = true;
    valid_.assign(values_.size(), true);
  }
  if (has_null_) {
    if (next.has_null_) {
      valid_.insert(valid_.end(), next.valid_.begin(), next.valid_.end());
    } else {
      valid_.resize(valid_.size() + next.values_.size(), true);
    }
  }
  values_.insert(values_.end(), next.values_.begin(), next.values_.end());
}

void ColumnBuilder::AddNumber(std::optional<double> value) {
  if (!keep_) {
    return;
  }
  if (!value && !has_null_) {
    has_null_ = true;
    valid_.assign(values_.size(), true);
  }
  if (has_null_) {
    valid_.push_back(value.has_value());
  }
  values_.push_back(value.value_or(0.0));
}

bool ColumnBuilder::numeric() const {
  return state_ == State::kNumeric || (state_ == State::kUndecided && any_value_);
}

Column ColumnBuilder::Build() && {
  SCODED_CHECK(keep_ && state_ != State::kIgnored);
  if (numeric()) {
    return has_null_ ? Column::NumericWithNulls(std::move(values_), std::move(valid_))
                     : Column::Numeric(std::move(values_));
  }
  if (state_ == State::kUndecided) {
    codes_.assign(values_.size(), -1);  // every cell was empty
  }
  return Column::CategoricalFromCodes(std::move(codes_), std::move(dictionary_).Release());
}

int32_t ColumnBuilder::Dictionary::Encode(std::string_view value) {
  if (auto it = index_.find(value); it != index_.end()) {
    return it->second;
  }
  int32_t code = static_cast<int32_t>(entries_.size());
  index_.emplace(value, code);
  entries_.emplace_back(value);
  return code;
}

// ---------------------------------------------------------------------------
// Whole-input passes and table assembly

void RowFeed::Add(const std::vector<std::string_view>& fields) {
  if (ragged_fields_.has_value()) {
    return;
  }
  if (fields.size() != columns.size()) {
    ragged_fields_ = fields.size();
    return;
  }
  ++rows_;
  for (size_t c = 0; c < fields.size(); ++c) {
    columns[c].Add(fields[c]);
  }
}

Status RowFeed::RaggedRow(size_t first_record) const {
  if (!ragged_fields_.has_value()) {
    return OkStatus();
  }
  std::string message = "CSV row ";
  message += std::to_string(first_record + rows_ + 1);
  message += " has ";
  message += std::to_string(*ragged_fields_);
  message += " fields, expected ";
  message += std::to_string(columns.size());
  return InvalidArgumentError(message);
}

std::vector<std::string> ColumnNames(const std::vector<std::string_view>& first, bool has_header) {
  std::vector<std::string> names;
  names.reserve(first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    if (has_header) {
      names.emplace_back(first[i]);
    } else {
      names.emplace_back("c").append(std::to_string(i));
    }
  }
  return names;
}

std::vector<size_t> ChunkStarts(std::string_view text, char delimiter, size_t grain_bytes) {
  uint8_t classes[256];
  FillClasses(classes, delimiter);
  const size_t grain = std::max<size_t>(1, grain_bytes);
  const size_t stretches = parallel::internal::NumChunks(text.size(), grain);
  std::vector<size_t> starts = {0};
  if (stretches <= 1 || std::count(classes, classes + 256, kNewline) == 0) {
    return starts;
  }
  // Every '"' opens or closes quotes (an escaped "" does both), so the
  // parity of the quotes before a byte says whether it is quoted.
  std::vector<uint8_t> odd = parallel::ParallelMap<uint8_t>(stretches, 1, [&](size_t s) {
    uint8_t parity = 0;
    for (char c : text.substr(s * grain, grain)) {
      parity ^= static_cast<uint8_t>(c == '"');
    }
    return parity;
  });
  bool quoted = odd[0] != 0;
  for (size_t s = 1; s < stretches; ++s) {
    const size_t end = std::min(text.size(), (s + 1) * grain);
    bool inside = quoted;
    for (size_t p = s * grain; p < end; ++p) {
      uint8_t cls = classes[static_cast<unsigned char>(text[p])];
      if (cls == kQuote) {
        inside = !inside;
      } else if (cls == kNewline && !inside) {
        if (p + 1 < text.size()) {
          starts.push_back(p + 1);
        }
        break;
      }
    }
    quoted = quoted != (odd[s] != 0);
  }
  return starts;
}

Result<TableScan> ScanTable(RecordScanner& scanner, const ReadOptions& options,
                            size_t shard_rows) {
  TableScan scan;
  bool first = true;
  size_t next_shard_row = 0;
  while (true) {
    const uint64_t record_offset = scanner.consumed();
    SCODED_ASSIGN_OR_RETURN(bool more, scanner.Next());
    if (!more) {
      break;
    }
    if (first) {
      first = false;
      scan.names = ColumnNames(scanner.fields(), options.has_header);
      scan.feed = RowFeed(scan.names.size(), options, /*keep_values=*/false);
      if (options.has_header) {
        continue;
      }
    }
    if (shard_rows > 0 && !scan.feed.ragged() && scan.feed.rows() == next_shard_row) {
      scan.shard_offsets.push_back(record_offset);
      next_shard_row += shard_rows;
    }
    scan.feed.Add(scanner.fields());
  }
  if (first) {
    return InvalidArgumentError("CSV input is empty");
  }
  SCODED_RETURN_IF_ERROR(scan.feed.RaggedRow(options.has_header ? 1 : 0));
  return scan;
}

Result<Table> BuildTable(const std::vector<std::string>& names,
                         std::vector<ColumnBuilder> columns) {
  TableBuilder builder;
  for (size_t c = 0; c < names.size(); ++c) {
    builder.AddColumn(names[c], std::move(columns[c]).Build());
  }
  return std::move(builder).Build();
}

}  // namespace scoded::csv
