#include "serve/wire.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

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

Result<Column> ParseNumericColumn(const JsonValue& column) {
  const JsonValue* values = column.Find("values");
  if (values == nullptr || !values->is_array()) {
    return InvalidArgumentError("numeric column is missing its values array");
  }
  std::vector<double> out;
  std::vector<bool> valid;
  out.reserve(values->array.size());
  valid.reserve(values->array.size());
  bool any_null = false;
  for (const JsonValue& cell : values->array) {
    if (cell.is_null()) {
      out.push_back(std::nan(""));
      valid.push_back(false);
      any_null = true;
    } else if (cell.is_number()) {
      out.push_back(cell.number);
      valid.push_back(true);
    } else if (cell.is_string()) {
      SCODED_ASSIGN_OR_RETURN(double parsed, ParseNonFiniteToken(cell.string_value));
      out.push_back(parsed);
      valid.push_back(true);
    } else {
      return InvalidArgumentError("numeric cell must be a number, null, or non-finite token");
    }
  }
  return any_null ? Column::NumericWithNulls(std::move(out), std::move(valid))
                  : Column::Numeric(std::move(out));
}

Result<Column> ParseCategoricalColumn(const JsonValue& column) {
  const JsonValue* codes = column.Find("codes");
  const JsonValue* dict = column.Find("dict");
  if (codes == nullptr || !codes->is_array() || dict == nullptr || !dict->is_array()) {
    return InvalidArgumentError("categorical column needs codes and dict arrays");
  }
  std::vector<std::string> dictionary;
  dictionary.reserve(dict->array.size());
  for (const JsonValue& entry : dict->array) {
    if (!entry.is_string()) {
      return InvalidArgumentError("categorical dictionary entries must be strings");
    }
    dictionary.push_back(entry.string_value);
  }
  std::vector<int32_t> out;
  out.reserve(codes->array.size());
  for (const JsonValue& cell : codes->array) {
    SCODED_ASSIGN_OR_RETURN(int64_t code,
                            JsonInteger(cell, -1, static_cast<int64_t>(dictionary.size()) - 1,
                                        "categorical code"));
    out.push_back(static_cast<int32_t>(code));
  }
  return Column::CategoricalFromCodes(std::move(out), std::move(dictionary));
}

// One 64-bit wire integer: a decimal string, full int64 range (cell keys
// use INT64_MIN as the null sentinel and negative values for double bit
// patterns with the sign bit set).
Result<int64_t> ParseWireInt64(const JsonValue& cell, std::string_view what) {
  if (!cell.is_string()) {
    return InvalidArgumentError(std::string(what) + " must be a decimal string");
  }
  return ParseCheckedInt(cell.string_value, INT64_MIN, INT64_MAX, what);
}

Result<std::vector<int64_t>> ParseWireInt64Array(const JsonValue& parent, const std::string& name) {
  const JsonValue* array = parent.Find(name);
  if (array == nullptr || !array->is_array()) {
    return InvalidArgumentError("shard summary is missing its " + name + " array");
  }
  std::vector<int64_t> out;
  out.reserve(array->array.size());
  for (const JsonValue& cell : array->array) {
    SCODED_ASSIGN_OR_RETURN(int64_t value, ParseWireInt64(cell, name + " entry"));
    out.push_back(value);
  }
  return out;
}

Result<int> ParseColumnIndex(const JsonValue& cell, std::string_view what) {
  SCODED_ASSIGN_OR_RETURN(int64_t index, JsonInteger(cell, 0, INT32_MAX, what));
  return static_cast<int>(index);
}

}  // namespace

void WriteShardSummaryJson(const PairwiseShardSummary::Snapshot& snapshot, JsonWriter& json) {
  json.BeginObject();
  json.Key("spec").BeginObject();
  json.Key("x").Int(snapshot.spec.x_col);
  json.Key("y").Int(snapshot.spec.y_col);
  json.Key("z").BeginArray();
  for (int z : snapshot.spec.z_cols) {
    json.Int(z);
  }
  json.EndArray();
  json.EndObject();
  json.Key("types").BeginArray();
  for (ColumnType type : snapshot.role_types) {
    json.String(ColumnTypeToString(type));
  }
  json.EndArray();
  json.Key("dicts").BeginArray();
  for (const std::vector<std::string>& dict : snapshot.dicts) {
    json.BeginArray();
    for (const std::string& value : dict) {
      json.String(value);
    }
    json.EndArray();
  }
  json.EndArray();
  json.Key("rows").String(std::to_string(snapshot.rows));
  json.Key("keys").BeginArray();
  for (int64_t key : snapshot.keys) {
    json.String(std::to_string(key));
  }
  json.EndArray();
  json.Key("counts").BeginArray();
  for (int64_t count : snapshot.counts) {
    json.String(std::to_string(count));
  }
  json.EndArray();
  json.Key("first_rows").BeginArray();
  for (uint64_t row : snapshot.first_rows) {
    json.String(std::to_string(row));
  }
  json.EndArray();
  json.EndObject();
}

Result<PairwiseShardSummary::Snapshot> ParseShardSummaryJson(const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgumentError("shard summary must be an object");
  }
  PairwiseShardSummary::Snapshot snapshot;
  const JsonValue* spec = value.Find("spec");
  if (spec == nullptr || !spec->is_object()) {
    return InvalidArgumentError("shard summary is missing its spec object");
  }
  const JsonValue* x = spec->Find("x");
  const JsonValue* y = spec->Find("y");
  const JsonValue* z = spec->Find("z");
  if (x == nullptr || y == nullptr || z == nullptr || !z->is_array()) {
    return InvalidArgumentError("shard summary spec needs x, y, and a z array");
  }
  SCODED_ASSIGN_OR_RETURN(snapshot.spec.x_col, ParseColumnIndex(*x, "spec x"));
  SCODED_ASSIGN_OR_RETURN(snapshot.spec.y_col, ParseColumnIndex(*y, "spec y"));
  snapshot.spec.z_cols.reserve(z->array.size());
  for (const JsonValue& cell : z->array) {
    SCODED_ASSIGN_OR_RETURN(int col, ParseColumnIndex(cell, "spec z entry"));
    snapshot.spec.z_cols.push_back(col);
  }
  const JsonValue* types = value.Find("types");
  if (types == nullptr || !types->is_array()) {
    return InvalidArgumentError("shard summary is missing its types array");
  }
  snapshot.role_types.reserve(types->array.size());
  for (const JsonValue& cell : types->array) {
    if (!cell.is_string()) {
      return InvalidArgumentError("shard summary types must be strings");
    }
    if (cell.string_value == "numeric") {
      snapshot.role_types.push_back(ColumnType::kNumeric);
    } else if (cell.string_value == "categorical") {
      snapshot.role_types.push_back(ColumnType::kCategorical);
    } else {
      return InvalidArgumentError("unknown role type '" + cell.string_value + "'");
    }
  }
  const JsonValue* dicts = value.Find("dicts");
  if (dicts == nullptr || !dicts->is_array()) {
    return InvalidArgumentError("shard summary is missing its dicts array");
  }
  snapshot.dicts.reserve(dicts->array.size());
  for (const JsonValue& dict : dicts->array) {
    if (!dict.is_array()) {
      return InvalidArgumentError("shard summary dictionaries must be arrays");
    }
    std::vector<std::string> values;
    values.reserve(dict.array.size());
    for (const JsonValue& entry : dict.array) {
      if (!entry.is_string()) {
        return InvalidArgumentError("shard summary dictionary entries must be strings");
      }
      values.push_back(entry.string_value);
    }
    snapshot.dicts.push_back(std::move(values));
  }
  const JsonValue* rows = value.Find("rows");
  if (rows == nullptr) {
    return InvalidArgumentError("shard summary is missing its rows field");
  }
  SCODED_ASSIGN_OR_RETURN(snapshot.rows, ParseWireInt64(*rows, "rows"));
  SCODED_ASSIGN_OR_RETURN(snapshot.keys, ParseWireInt64Array(value, "keys"));
  SCODED_ASSIGN_OR_RETURN(snapshot.counts, ParseWireInt64Array(value, "counts"));
  SCODED_ASSIGN_OR_RETURN(std::vector<int64_t> first_rows,
                          ParseWireInt64Array(value, "first_rows"));
  snapshot.first_rows.reserve(first_rows.size());
  for (int64_t row : first_rows) {
    if (row < 0) {
      return InvalidArgumentError("shard summary first_rows must be non-negative");
    }
    snapshot.first_rows.push_back(static_cast<uint64_t>(row));
  }
  return snapshot;
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

Result<Table> ParseBatchJson(const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgumentError("batch must be an object");
  }
  const JsonValue* columns = value.Find("columns");
  if (columns == nullptr || !columns->is_array()) {
    return InvalidArgumentError("batch is missing its columns array");
  }
  TableBuilder builder;
  for (const JsonValue& column : columns->array) {
    const JsonValue* name = column.Find("name");
    const JsonValue* type = column.Find("type");
    if (name == nullptr || !name->is_string() || type == nullptr || !type->is_string()) {
      return InvalidArgumentError("batch columns need string name and type members");
    }
    if (type->string_value == "numeric") {
      SCODED_ASSIGN_OR_RETURN(Column parsed, ParseNumericColumn(column));
      builder.AddColumn(name->string_value, std::move(parsed));
    } else if (type->string_value == "categorical") {
      SCODED_ASSIGN_OR_RETURN(Column parsed, ParseCategoricalColumn(column));
      builder.AddColumn(name->string_value, std::move(parsed));
    } else {
      return InvalidArgumentError("unknown column type '" + type->string_value + "'");
    }
  }
  SCODED_ASSIGN_OR_RETURN(Table batch, std::move(builder).Build());
  const JsonValue* rows = value.Find("rows");
  if (rows != nullptr && rows->is_number()) {
    SCODED_ASSIGN_OR_RETURN(int64_t count, JsonInteger(*rows, 0, INT64_MAX, "batch rows"));
    if (static_cast<uint64_t>(count) != batch.NumRows()) {
      return InvalidArgumentError("batch rows field disagrees with its column lengths");
    }
  }
  return batch;
}

}  // namespace scoded::serve
