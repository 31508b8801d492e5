#include "table/csv.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "table/csv_scan.h"

namespace scoded::csv {

namespace {

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

std::string QuoteField(std::string_view value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<Table> ReadString(std::string_view text, const ReadOptions& options) {
  RecordScanner scanner(text, options.delimiter);
  SCODED_ASSIGN_OR_RETURN(TableScan scan, ScanTable(scanner, options, /*keep_values=*/true));
  // A column that turned out categorical after keeping numeric values is
  // re-encoded from a second scan of the text.
  std::vector<size_t> rebuild;
  for (size_t c = 0; c < scan.columns.size(); ++c) {
    if (scan.columns[c].needs_rebuild()) {
      scan.columns[c] = ColumnBuilder::Typed(/*numeric=*/false);
      rebuild.push_back(c);
    }
  }
  if (!rebuild.empty()) {
    RecordScanner again(text, options.delimiter);
    bool header = options.has_header;
    while (true) {
      SCODED_ASSIGN_OR_RETURN(bool more, again.Next());
      if (!more) {
        break;
      }
      if (header) {
        header = false;
        continue;
      }
      for (size_t c : rebuild) {
        scan.columns[c].Add(again.fields()[c]);
      }
    }
  }
  return BuildTable(scan.names, std::move(scan.columns));
}

Result<Table> ReadFile(const std::string& path, const ReadOptions& options) {
  SCODED_ASSIGN_OR_RETURN(InputFile file, InputFile::Open(path));
  SCODED_ASSIGN_OR_RETURN(std::string text, file.ReadAll());
  return ReadString(text, options);
}

std::string WriteString(const Table& table, char delimiter) {
  std::ostringstream os;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) {
      os << delimiter;
    }
    const std::string& name = table.schema().field(c).name;
    os << (NeedsQuoting(name, delimiter) ? QuoteField(name) : name);
  }
  os << "\n";
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) {
        os << delimiter;
      }
      std::string value = table.column(c).ValueToString(r);
      os << (NeedsQuoting(value, delimiter) ? QuoteField(value) : value);
    }
    os << "\n";
  }
  return os.str();
}

Status WriteFile(const Table& table, const std::string& path, char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return InvalidArgumentError("cannot open '" + path + "' for writing");
  }
  out << WriteString(table, delimiter);
  if (!out) {
    return DataLossError("failed while writing '" + path + "'");
  }
  return OkStatus();
}

}  // namespace scoded::csv
