#include "table/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/string_util.h"
#include "table/csv_scan.h"

namespace scoded::csv {

namespace {

// The byte grain a read cuts its input at. A megabyte makes four chunks,
// enough to keep a few cores busy and few enough that their merge stays
// small, and an input below 256 KiB stays one chunk.
constexpr size_t kReadGrainBytes = size_t{1} << 18;

// One chunk of a read: its bytes, the rows its columns have room for, its
// scanner's verdict and its typed rows.
struct Chunk {
  std::string_view text;
  size_t room = 0;
  Status status;
  RowFeed feed;
};

bool NeedsQuoting(std::string_view value, char delimiter) {
  if (value.empty()) {
    return false;
  }
  // Leading/trailing whitespace must be quoted to survive the reader's
  // unquoted-field trim; '\r' must be quoted to survive line-end handling.
  bool edge_space = Trim(value).size() != value.size();
  return edge_space || value.find(delimiter) != std::string_view::npos ||
         value.find('"') != std::string_view::npos ||
         value.find('\n') != std::string_view::npos ||
         value.find('\r') != std::string_view::npos;
}

void AppendField(std::string& out, std::string_view value, char delimiter) {
  if (!NeedsQuoting(value, delimiter)) {
    out.append(value);
    return;
  }
  out.push_back('"');
  for (char c : value) {
    if (c == '"') {
      out.push_back('"');
    }
    out.push_back(c);
  }
  out.push_back('"');
}

// Appends a numeric cell as Column::ValueToString renders it: an integer
// below 1e15 in magnitude without a decimal point, anything else as
// `os << v` prints it (%g at precision 6).
void AppendNumber(std::string& out, double v, char delimiter) {
  char buffer[32];
  std::to_chars_result written =
      v == std::floor(v) && std::fabs(v) < 1e15
          ? std::to_chars(buffer, buffer + sizeof buffer, static_cast<int64_t>(v))
          : std::to_chars(buffer, buffer + sizeof buffer, v, std::chars_format::general, 6);
  AppendField(out, std::string_view(buffer, static_cast<size_t>(written.ptr - buffer)), delimiter);
}

// Reads `text` in chunks of about `grain_bytes`. With `owner`, the string
// that holds `text`, the text is freed once the chunks are typed, before
// the merge allocates the table, which can then take its memory.
Result<Table> Read(std::string_view text, const ReadOptions& options, size_t grain_bytes,
                   std::string* owner) {
  // The first record names the columns and fixes the width.
  RecordScanner first(text, options.delimiter);
  SCODED_ASSIGN_OR_RETURN(bool any, first.Next());
  if (!any) {
    return InvalidArgumentError("CSV input is empty");
  }
  const std::vector<std::string> names = ColumnNames(first.fields(), options.has_header);
  const size_t width = names.size();
  // The data records start past the header, or with the first record.
  const size_t first_record = options.has_header ? 1 : 0;
  const std::string_view data = text.substr(options.has_header ? first.consumed() : 0);
  const std::vector<size_t> starts = ChunkStarts(data, options.delimiter, grain_bytes);

  std::vector<Chunk> chunks(starts.size());
  for (size_t k = 0; k < chunks.size(); ++k) {
    size_t end = k + 1 < starts.size() ? starts[k + 1] : data.size();
    chunks[k].text = data.substr(starts[k], end - starts[k]);
  }
  // A record ends at a '\n' or at the end of the input, so a chunk holds at
  // most one record more than it has '\n' bytes.
  parallel::ParallelFor(0, chunks.size(), 1, [&](size_t k) {
    const std::string_view bytes = chunks[k].text;
    chunks[k].room = static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n')) + 1;
  });
  // The calling thread sizes every column before the pool fills them, so
  // the workers store cells without allocating. The cells then live in
  // this thread's heap, as a serial read's do, and not in the workers'
  // malloc arenas, where the pages a read touches, and what is left there
  // for the next caller of the pool, would depend on which worker scanned
  // which chunk.
  for (Chunk& chunk : chunks) {
    chunk.feed = RowFeed(width, options, /*keep_values=*/true);
    for (ColumnBuilder& column : chunk.feed.columns) {
      column.Reserve(chunk.room);
    }
  }
  parallel::ParallelFor(0, chunks.size(), 1, [&](size_t k) {
    Chunk& chunk = chunks[k];
    RecordScanner scanner(chunk.text, options.delimiter);
    while (true) {
      Result<bool> more = scanner.Next();
      if (!more.ok() || !*more) {
        chunk.status = more.status();
        return;
      }
      chunk.feed.Add(scanner.fields());
    }
  });
  // Every chunk but the last ends at a record terminator outside quotes, so
  // only the last can end inside a quoted field; that outranks a ragged row.
  for (const Chunk& chunk : chunks) {
    SCODED_RETURN_IF_ERROR(chunk.status);
  }
  size_t record = first_record;
  for (const Chunk& chunk : chunks) {
    SCODED_RETURN_IF_ERROR(chunk.feed.RaggedRow(record));
    record += chunk.feed.rows();
  }

  // A column is numeric when no chunk saw a cell that is not a number and
  // some chunk saw a number. Otherwise each chunk encodes its cells as
  // categories, and a chunk that kept numbers re-encodes its own rows.
  std::vector<std::vector<size_t>> rebuild(chunks.size());
  for (size_t c = 0; c < width; ++c) {
    bool numeric = false;
    bool categorical = false;
    for (const Chunk& chunk : chunks) {
      numeric = numeric || chunk.feed.columns[c].numeric();
      categorical = categorical || chunk.feed.columns[c].categorical();
    }
    if (numeric && !categorical) {
      continue;
    }
    for (size_t k = 0; k < chunks.size(); ++k) {
      if (!chunks[k].feed.columns[c].MakeCategorical()) {
        rebuild[k].push_back(c);
      }
    }
  }
  for (size_t k = 0; k < chunks.size(); ++k) {
    for (size_t c : rebuild[k]) {
      ColumnBuilder& column = chunks[k].feed.columns[c];
      column = ColumnBuilder::Typed(/*numeric=*/false);
      column.Reserve(chunks[k].room);
    }
  }
  parallel::ParallelFor(0, chunks.size(), 1, [&](size_t k) {
    if (rebuild[k].empty()) {
      return;
    }
    std::vector<ColumnBuilder>& columns = chunks[k].feed.columns;
    RecordScanner again(chunks[k].text, options.delimiter);
    while (again.Next().value()) {  // the chunk scanned cleanly the first time
      for (size_t c : rebuild[k]) {
        columns[c].Add(again.fields()[c]);
      }
    }
  });

  // The chunks are typed, so the text is no longer read.
  if (owner != nullptr) {
    std::string().swap(*owner);
  }

  // Each column appends the later chunks' cells to the first chunk's, one
  // column after another on this thread: the room for the whole column is
  // made once its type is known, where the cells of the columns merged
  // before it were freed.
  if (chunks.size() > 1) {
    for (size_t c = 0; c < width; ++c) {
      ColumnBuilder& column = chunks[0].feed.columns[c];
      column.Reserve(record - first_record);
      for (size_t k = 1; k < chunks.size(); ++k) {
        column.Append(std::move(chunks[k].feed.columns[c]));
      }
    }
  }
  return BuildTable(names, std::move(chunks[0].feed.columns));
}

}  // namespace

Result<Table> ReadString(std::string_view text, const ReadOptions& options) {
  return Read(text, options, kReadGrainBytes, nullptr);
}

namespace internal {

Result<Table> ReadString(std::string_view text, const ReadOptions& options, size_t grain_bytes) {
  return Read(text, options, grain_bytes, nullptr);
}

}  // namespace internal

Result<Table> ReadFile(const std::string& path, const ReadOptions& options) {
  SCODED_ASSIGN_OR_RETURN(InputFile file, InputFile::Open(path));
  SCODED_ASSIGN_OR_RETURN(std::string text, file.ReadAll());
  return Read(text, options, kReadGrainBytes, &text);
}

std::string WriteString(const Table& table, char delimiter) {
  std::string out;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) {
      out.push_back(delimiter);
    }
    AppendField(out, table.schema().field(c).name, delimiter);
  }
  out.push_back('\n');
  // A category renders the same in every row, so each is quoted once.
  std::vector<std::vector<std::string>> categories(table.NumColumns());
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (table.column(c).type() == ColumnType::kCategorical) {
      for (const std::string& category : table.column(c).dictionary()) {
        AppendField(categories[c].emplace_back(), category, delimiter);
      }
    }
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) {
        out.push_back(delimiter);
      }
      const Column& column = table.column(c);
      if (column.IsNull(r)) {
        continue;
      }
      if (column.type() == ColumnType::kCategorical) {
        out += categories[c][static_cast<size_t>(column.CodeAt(r))];
      } else {
        AppendNumber(out, column.NumericAt(r), delimiter);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteFile(const Table& table, const std::string& path, char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return InvalidArgumentError("cannot open '" + path + "' for writing");
  }
  const std::string text = WriteString(table, delimiter);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) {
    return DataLossError("failed while writing '" + path + "'");
  }
  return OkStatus();
}

}  // namespace scoded::csv
