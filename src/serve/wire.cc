#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>


namespace scoded::serve {

namespace {

Result<double> ParseNonFiniteToken(const std::string& token) {
  if (token == "nan") {
    return std::nan("");
  }
  if (token == "inf") {
    return HUGE_VAL;
  }
  if (token == "-inf") {
    return -HUGE_VAL;
  }
  return InvalidArgumentError("unknown numeric token '" + token +
                              "' (expected nan, inf, or -inf)");
}

// How a member the decoder looks for turned up: absent, with the kind its
// rule needs, or as some other kind.
enum class Member { kAbsent, kWanted, kOther };

// One column object's members, gathered in the order they arrive. The
// type rules run on them once the object closes (FinishColumn).
struct ColumnMembers {
  Member name = Member::kAbsent;
  Member type = Member::kAbsent;
  Member values = Member::kAbsent;
  Member codes = Member::kAbsent;
  Member dict = Member::kAbsent;
  std::string name_text;
  std::string type_text;

  std::vector<double> numbers;
  std::vector<bool> valid;
  // A null cell or a "nan" token: the column needs its validity mask,
  // since without one Column::IsNull reads a non-null NaN as null.
  bool masked = false;
  Status values_error;  // the first cell that is no numeric cell

  // Codes in [-1, INT32_MAX], up to the first that no dictionary admits:
  // a non-integer, or an integer outside that range (a column's codes are
  // int32, and no frame can carry 2^31 dictionary entries).
  std::vector<int32_t> code_values;
  bool bad_code_seen = false;
  double bad_code = 0.0;  // NaN when it was not a number

  std::vector<std::string> dictionary;
  bool dictionary_all_strings = true;
};

void ReadNumericCells(JsonReader& reader, ColumnMembers& column) {
  while (reader.NextElement()) {
    JsonValue::Kind kind = reader.Begin();
    if (kind == JsonValue::Kind::kNumber) {
      column.numbers.push_back(reader.number());
      column.valid.push_back(true);
    } else if (kind == JsonValue::Kind::kNull) {
      column.numbers.push_back(std::nan(""));
      column.valid.push_back(false);
      column.masked = true;
    } else if (kind == JsonValue::Kind::kString) {
      Result<double> parsed = ParseNonFiniteToken(reader.string());
      if (parsed.ok()) {
        column.numbers.push_back(*parsed);
        column.valid.push_back(true);
        column.masked = column.masked || std::isnan(*parsed);
      } else if (column.values_error.ok()) {
        column.values_error = parsed.status();
      }
    } else {
      if (column.values_error.ok()) {
        column.values_error =
            InvalidArgumentError("numeric cell must be a number, null, or non-finite token");
      }
      reader.Skip(kind);
    }
  }
}

void ReadCodes(JsonReader& reader, ColumnMembers& column) {
  while (reader.NextElement()) {
    JsonValue::Kind kind = reader.Begin();
    if (!column.bad_code_seen) {
      double x = kind == JsonValue::Kind::kNumber ? reader.number() : std::nan("");
      if (x >= -1.0 && x <= static_cast<double>(INT32_MAX) && std::trunc(x) == x) {
        column.code_values.push_back(static_cast<int32_t>(x));
      } else {
        column.bad_code_seen = true;
        column.bad_code = x;
      }
    }
    reader.Skip(kind);
  }
}

void ReadDictionary(JsonReader& reader, ColumnMembers& column) {
  while (reader.NextElement()) {
    JsonValue::Kind kind = reader.Begin();
    if (kind == JsonValue::Kind::kString) {
      column.dictionary.push_back(std::move(reader.string()));
    } else {
      column.dictionary_all_strings = false;
      reader.Skip(kind);
    }
  }
}

// Reads the value of one member of a column object; reader.key() names it.
void ReadColumnMember(JsonReader& reader, ColumnMembers& column) {
  const std::string& key = reader.key();
  Member* seen = key == "name"     ? &column.name
                 : key == "type"   ? &column.type
                 : key == "values" ? &column.values
                 : key == "codes"  ? &column.codes
                 : key == "dict"   ? &column.dict
                                   : nullptr;
  const bool text = seen == &column.name || seen == &column.type;
  JsonValue::Kind kind = reader.Begin();
  if (seen == nullptr || *seen != Member::kAbsent) {
    reader.Skip(kind);
    return;
  }
  if (kind != (text ? JsonValue::Kind::kString : JsonValue::Kind::kArray)) {
    *seen = Member::kOther;
    reader.Skip(kind);
    return;
  }
  *seen = Member::kWanted;
  if (seen == &column.name) {
    column.name_text = std::move(reader.string());
  } else if (seen == &column.type) {
    column.type_text = std::move(reader.string());
  } else if (seen == &column.values) {
    ReadNumericCells(reader, column);
  } else if (seen == &column.codes) {
    ReadCodes(reader, column);
  } else {
    ReadDictionary(reader, column);
  }
}

// The type rules, checked in a fixed order whatever order the members came in.
Result<Column> FinishColumn(ColumnMembers& column) {
  if (column.name != Member::kWanted || column.type != Member::kWanted) {
    return InvalidArgumentError("batch columns need string name and type members");
  }
  if (column.type_text == "numeric") {
    if (column.values != Member::kWanted) {
      return InvalidArgumentError("numeric column is missing its values array");
    }
    SCODED_RETURN_IF_ERROR(column.values_error);
    return column.masked
               ? Column::NumericWithNulls(std::move(column.numbers), std::move(column.valid))
               : Column::Numeric(std::move(column.numbers));
  }
  if (column.type_text == "categorical") {
    if (column.codes != Member::kWanted || column.dict != Member::kWanted) {
      return InvalidArgumentError("categorical column needs codes and dict arrays");
    }
    if (!column.dictionary_all_strings) {
      return InvalidArgumentError("categorical dictionary entries must be strings");
    }
    const int64_t top = static_cast<int64_t>(column.dictionary.size()) - 1;
    for (int32_t code : column.code_values) {
      if (code > top) {
        return JsonInteger(code, -1, top, "categorical code").status();
      }
    }
    if (column.bad_code_seen) {
      return JsonInteger(column.bad_code, -1, top, "categorical code").status();
    }
    return Column::CategoricalFromCodes(std::move(column.code_values),
                                        std::move(column.dictionary));
  }
  return InvalidArgumentError("unknown column type '" + column.type_text + "'");
}

// Reads one element of the columns array into `builder`, or into `error`
// the first rule it breaks.
void ReadColumn(JsonReader& reader, TableBuilder& builder, Status& error) {
  ColumnMembers members;
  JsonValue::Kind kind = reader.Begin();
  if (kind == JsonValue::Kind::kObject) {
    while (reader.NextMember()) {
      ReadColumnMember(reader, members);
    }
  } else {
    reader.Skip(kind);
  }
  Result<Column> column = FinishColumn(members);
  if (column.ok()) {
    builder.AddColumn(std::move(members.name_text), std::move(column).value());
  } else {
    error = column.status();
  }
}

// Cell arrays cross the wire as their in-memory bytes.
static_assert(std::endian::native == std::endian::little,
              "the shard summary frames copy little-endian arrays as they are");

// Buffers the encoded bytes and emits a frame whenever kSummaryFrameBytes
// of them are ready.
class FrameWriter {
 public:
  explicit FrameWriter(const std::function<Status(std::string_view)>& emit) : emit_(emit) {}

  Status Bytes(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      size_t take = std::min(n, kSummaryFrameBytes - buffer_.size());
      buffer_.append(p, take);
      p += take;
      n -= take;
      if (buffer_.size() == kSummaryFrameBytes) {
        SCODED_RETURN_IF_ERROR(Flush());
      }
    }
    return OkStatus();
  }

  Status U64(uint64_t value) { return Bytes(&value, sizeof(value)); }

  template <typename Word>
  Status Words(const std::vector<Word>& words) {
    static_assert(sizeof(Word) == 8);
    return Bytes(words.data(), words.size() * sizeof(Word));
  }

  Status Flush() {
    if (buffer_.empty()) {
      return OkStatus();
    }
    Status status = emit_(buffer_);
    buffer_.clear();
    return status;
  }

 private:
  const std::function<Status(std::string_view)>& emit_;
  std::string buffer_;
};

// Reads the byte stream back, pulling the next frame when the current one
// runs out.
class FrameReader {
 public:
  explicit FrameReader(const std::function<Result<std::string>()>& next) : next_(next) {}

  // Up to `n` bytes of the current frame, fetching a frame when it is spent.
  Result<std::string_view> Some(size_t n) {
    if (pos_ == frame_.size()) {
      SCODED_ASSIGN_OR_RETURN(frame_, next_());
      pos_ = 0;
      if (frame_.empty()) {
        return InvalidArgumentError("shard summary body has an empty frame");
      }
    }
    size_t take = std::min(n, frame_.size() - pos_);
    std::string_view out(frame_.data() + pos_, take);
    pos_ += take;
    return out;
  }

  Status Bytes(void* out, size_t n) {
    char* p = static_cast<char*>(out);
    while (n > 0) {
      SCODED_ASSIGN_OR_RETURN(std::string_view piece, Some(n));
      std::memcpy(p, piece.data(), piece.size());
      p += piece.size();
      n -= piece.size();
    }
    return OkStatus();
  }

  Result<uint64_t> U64() {
    uint64_t value = 0;
    SCODED_RETURN_IF_ERROR(Bytes(&value, sizeof(value)));
    return value;
  }

  Result<int64_t> I64() {
    SCODED_ASSIGN_OR_RETURN(uint64_t value, U64());
    return static_cast<int64_t>(value);
  }

  // A count in [0, bound], checked before the caller sizes anything by it.
  Result<uint64_t> Count(uint64_t bound, std::string_view what) {
    SCODED_ASSIGN_OR_RETURN(uint64_t value, U64());
    if (value > bound) {
      return InvalidArgumentError("shard summary announces " + std::to_string(value) + " " +
                                  std::string(what) + ", above the bound of " +
                                  std::to_string(bound));
    }
    return value;
  }

  template <typename Word>
  Status Words(std::vector<Word>& words, size_t n) {
    static_assert(sizeof(Word) == 8);
    words.resize(n);
    return Bytes(words.data(), n * sizeof(Word));
  }

  // A string of `n` bytes, grown only as its bytes arrive.
  Result<std::string> String(uint64_t n) {
    std::string out;
    while (n > 0) {
      SCODED_ASSIGN_OR_RETURN(std::string_view piece, Some(n));
      out.append(piece);
      n -= piece.size();
    }
    return out;
  }

  size_t Unread() const { return frame_.size() - pos_; }

 private:
  const std::function<Result<std::string>()>& next_;
  std::string frame_;
  size_t pos_ = 0;
};

Result<PairwiseShardSummary::Snapshot> ReadSnapshot(FrameReader& in,
                                                    const PairwiseShardSummary::Spec& want,
                                                    uint64_t max_rows) {
  PairwiseShardSummary::Snapshot snapshot;
  SCODED_ASSIGN_OR_RETURN(int64_t x, in.I64());
  SCODED_ASSIGN_OR_RETURN(int64_t y, in.I64());
  SCODED_ASSIGN_OR_RETURN(uint64_t nz, in.U64());
  if (x != want.x_col || y != want.y_col || nz != want.z_cols.size()) {
    return InvalidArgumentError("shard summary answers the wrong component");
  }
  snapshot.spec.x_col = want.x_col;
  snapshot.spec.y_col = want.y_col;
  for (int want_z : want.z_cols) {
    SCODED_ASSIGN_OR_RETURN(int64_t z, in.I64());
    if (z != want_z) {
      return InvalidArgumentError("shard summary answers the wrong component");
    }
    snapshot.spec.z_cols.push_back(want_z);
  }
  const size_t num_roles = want.z_cols.size() + 2;
  for (size_t r = 0; r < num_roles; ++r) {
    SCODED_ASSIGN_OR_RETURN(uint64_t type, in.Count(1, "as a role type"));
    snapshot.role_types.push_back(type == 0 ? ColumnType::kNumeric : ColumnType::kCategorical);
  }
  snapshot.dicts.resize(num_roles);
  for (std::vector<std::string>& dict : snapshot.dicts) {
    // Every dictionary value occurs in some row of the range.
    SCODED_ASSIGN_OR_RETURN(uint64_t size, in.Count(max_rows, "dictionary values"));
    dict.reserve(size);
    for (uint64_t v = 0; v < size; ++v) {
      SCODED_ASSIGN_OR_RETURN(uint64_t length, in.U64());
      SCODED_ASSIGN_OR_RETURN(std::string value, in.String(length));
      dict.push_back(std::move(value));
    }
  }
  SCODED_ASSIGN_OR_RETURN(snapshot.rows, in.I64());
  if (snapshot.rows < 0 || static_cast<uint64_t>(snapshot.rows) > max_rows) {
    return InvalidArgumentError("shard summary claims " + std::to_string(snapshot.rows) +
                                " rows, outside [0, " + std::to_string(max_rows) + "]");
  }
  // A cell holds at least one row.
  const uint64_t cell_bound = std::min<uint64_t>(static_cast<uint64_t>(snapshot.rows),
                                                 SIZE_MAX / (sizeof(int64_t) * num_roles));
  SCODED_ASSIGN_OR_RETURN(uint64_t cells, in.Count(cell_bound, "cells"));
  SCODED_RETURN_IF_ERROR(in.Words(snapshot.keys, static_cast<size_t>(cells) * num_roles));
  SCODED_RETURN_IF_ERROR(in.Words(snapshot.counts, static_cast<size_t>(cells)));
  SCODED_RETURN_IF_ERROR(in.Words(snapshot.first_rows, static_cast<size_t>(cells)));
  return snapshot;
}

}  // namespace

Status WriteShardSummaryFrames(uint64_t rows,
                               const std::vector<PairwiseShardSummary::Snapshot>& snapshots,
                               const std::function<Status(std::string_view)>& emit) {
  FrameWriter out(emit);
  SCODED_RETURN_IF_ERROR(out.U64(rows));
  for (const PairwiseShardSummary::Snapshot& snapshot : snapshots) {
    SCODED_RETURN_IF_ERROR(out.U64(static_cast<uint64_t>(snapshot.spec.x_col)));
    SCODED_RETURN_IF_ERROR(out.U64(static_cast<uint64_t>(snapshot.spec.y_col)));
    SCODED_RETURN_IF_ERROR(out.U64(snapshot.spec.z_cols.size()));
    for (int z : snapshot.spec.z_cols) {
      SCODED_RETURN_IF_ERROR(out.U64(static_cast<uint64_t>(z)));
    }
    for (ColumnType type : snapshot.role_types) {
      SCODED_RETURN_IF_ERROR(out.U64(type == ColumnType::kNumeric ? 0 : 1));
    }
    for (const std::vector<std::string>& dict : snapshot.dicts) {
      SCODED_RETURN_IF_ERROR(out.U64(dict.size()));
      for (const std::string& value : dict) {
        SCODED_RETURN_IF_ERROR(out.U64(value.size()));
        SCODED_RETURN_IF_ERROR(out.Bytes(value.data(), value.size()));
      }
    }
    SCODED_RETURN_IF_ERROR(out.U64(static_cast<uint64_t>(snapshot.rows)));
    SCODED_RETURN_IF_ERROR(out.U64(snapshot.counts.size()));
    SCODED_RETURN_IF_ERROR(out.Words(snapshot.keys));
    SCODED_RETURN_IF_ERROR(out.Words(snapshot.counts));
    SCODED_RETURN_IF_ERROR(out.Words(snapshot.first_rows));
  }
  return out.Flush();
}

Result<ShardSummaryFrames> ReadShardSummaryFrames(
    const std::function<Result<std::string>()>& next_frame,
    const std::vector<PairwiseShardSummary::Spec>& specs, uint64_t max_rows) {
  FrameReader in(next_frame);
  ShardSummaryFrames out;
  SCODED_ASSIGN_OR_RETURN(out.rows, in.Count(max_rows, "rows"));
  out.snapshots.reserve(specs.size());
  for (const PairwiseShardSummary::Spec& spec : specs) {
    SCODED_ASSIGN_OR_RETURN(PairwiseShardSummary::Snapshot snapshot,
                            ReadSnapshot(in, spec, max_rows));
    out.snapshots.push_back(std::move(snapshot));
  }
  if (in.Unread() != 0) {
    return InvalidArgumentError("shard summary body has " + std::to_string(in.Unread()) +
                                " bytes past its last summary");
  }
  return out;
}

void WriteSchemaJson(const Schema& schema, JsonWriter& json) {
  json.BeginArray();
  for (const Field& field : schema.fields()) {
    json.BeginObject();
    json.Key("name").String(field.name);
    json.Key("type").String(ColumnTypeToString(field.type));
    json.EndObject();
  }
  json.EndArray();
}

Result<Schema> ParseSchemaJson(const JsonValue& value) {
  if (!value.is_array()) {
    return InvalidArgumentError("schema must be an array of {name, type} objects");
  }
  std::vector<Field> fields;
  fields.reserve(value.array.size());
  for (const JsonValue& entry : value.array) {
    const JsonValue* name = entry.Find("name");
    const JsonValue* type = entry.Find("type");
    if (name == nullptr || !name->is_string() || type == nullptr || !type->is_string()) {
      return InvalidArgumentError("schema entries need string name and type members");
    }
    ColumnType column_type;
    if (type->string_value == "numeric") {
      column_type = ColumnType::kNumeric;
    } else if (type->string_value == "categorical") {
      column_type = ColumnType::kCategorical;
    } else {
      return InvalidArgumentError("unknown column type '" + type->string_value +
                                  "' (expected numeric or categorical)");
    }
    fields.push_back({name->string_value, column_type});
  }
  return Schema(std::move(fields));
}

Result<Table> EmptyTableForSchema(const Schema& schema) {
  TableBuilder builder;
  for (const Field& field : schema.fields()) {
    if (field.type == ColumnType::kNumeric) {
      builder.AddNumeric(field.name, {});
    } else {
      builder.AddCategorical(field.name, {});
    }
  }
  return std::move(builder).Build();
}

void WriteBatchJson(const Table& batch, JsonWriter& json) {
  json.BeginObject();
  json.Key("rows").Uint(batch.NumRows());
  json.Key("columns").BeginArray();
  for (size_t c = 0; c < batch.NumColumns(); ++c) {
    const Column& column = batch.column(c);
    json.BeginObject();
    json.Key("name").String(batch.schema().field(c).name);
    json.Key("type").String(ColumnTypeToString(column.type()));
    if (column.type() == ColumnType::kNumeric) {
      json.Key("values").BeginArray();
      for (size_t row = 0; row < column.size(); ++row) {
        if (column.IsNull(row)) {
          json.Null();
        } else {
          double value = column.NumericAt(row);
          if (std::isfinite(value)) {
            json.DoubleFull(value);
          } else if (std::isnan(value)) {
            json.String("nan");
          } else {
            json.String(value > 0 ? "inf" : "-inf");
          }
        }
      }
      json.EndArray();
    } else {
      json.Key("codes").BeginArray();
      for (size_t row = 0; row < column.size(); ++row) {
        json.Int(column.CodeAt(row));
      }
      json.EndArray();
      json.Key("dict").BeginArray();
      for (const std::string& category : column.dictionary()) {
        json.String(category);
      }
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

Result<Table> ReadBatchJson(JsonReader& reader) {
  JsonValue::Kind kind = reader.Begin();
  if (kind != JsonValue::Kind::kObject) {
    reader.Skip(kind);
    return InvalidArgumentError("batch must be an object");
  }
  Member columns = Member::kAbsent;
  Member rows = Member::kAbsent;
  double rows_value = 0.0;
  TableBuilder builder;
  Status column_error;
  while (reader.NextMember()) {
    const bool first_columns = columns == Member::kAbsent && reader.key() == "columns";
    const bool first_rows = rows == Member::kAbsent && reader.key() == "rows";
    JsonValue::Kind member = reader.Begin();
    if (first_columns && member == JsonValue::Kind::kArray) {
      columns = Member::kWanted;
      while (reader.NextElement()) {
        if (column_error.ok()) {
          ReadColumn(reader, builder, column_error);
        } else {
          reader.Skip(reader.Begin());  // past the first bad column only the syntax matters
        }
      }
      continue;
    }
    if (first_columns) {
      columns = Member::kOther;
    } else if (first_rows) {
      rows = member == JsonValue::Kind::kNumber ? Member::kWanted : Member::kOther;
      rows_value = reader.number();
    }
    reader.Skip(member);
  }
  if (columns != Member::kWanted) {
    return InvalidArgumentError("batch is missing its columns array");
  }
  SCODED_RETURN_IF_ERROR(column_error);
  SCODED_ASSIGN_OR_RETURN(Table batch, std::move(builder).Build());
  if (rows == Member::kWanted) {
    SCODED_ASSIGN_OR_RETURN(int64_t count, JsonInteger(rows_value, 0, INT64_MAX, "batch rows"));
    if (static_cast<uint64_t>(count) != batch.NumRows()) {
      return InvalidArgumentError("batch rows field disagrees with its column lengths");
    }
  }
  return batch;
}

Result<RequestJson> ReadRequestJson(std::string_view payload) {
  JsonReader reader(payload);
  RequestJson request;
  JsonValue::Kind kind = reader.Begin();
  if (kind != JsonValue::Kind::kObject) {
    reader.Read(kind, &request.envelope);
  } else {
    request.envelope.kind = kind;
    bool batch_read = false;
    while (reader.NextMember()) {
      if (reader.key() != "batch") {
        std::string name = reader.key();
        JsonValue value;
        reader.Read(reader.Begin(), &value);
        request.envelope.object.emplace_back(std::move(name), std::move(value));
      } else if (!batch_read) {
        batch_read = true;
        request.batch = ReadBatchJson(reader);
      } else {
        reader.Skip(reader.Begin());  // a repeat: the first one counts
      }
    }
  }
  SCODED_RETURN_IF_ERROR(reader.End());
  return request;
}

}  // namespace scoded::serve
