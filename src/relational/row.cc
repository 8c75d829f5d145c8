#include "relational/row.h"

#include "common/strings.h"

namespace medsync::relational {

Key KeyOf(const Schema& schema, const Row& row) {
  Key key;
  key.reserve(schema.key_indices().size());
  for (size_t idx : schema.key_indices()) {
    key.push_back(row[idx]);
  }
  return key;
}

Status ValidateRow(const Schema& schema, const Row& row) {
  if (row.size() != schema.attribute_count()) {
    return Status::InvalidArgument(
        StrCat("row arity ", row.size(), " does not match schema arity ",
               schema.attribute_count()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const AttributeDef& attr = schema.attributes()[i];
    if (row[i].is_null()) {
      if (!attr.nullable) {
        return Status::InvalidArgument(
            StrCat("NULL in non-nullable attribute '", attr.name, "'"));
      }
      continue;
    }
    if (!row[i].MatchesType(attr.type)) {
      return Status::InvalidArgument(
          StrCat("type mismatch in attribute '", attr.name, "': expected ",
                 DataTypeName(attr.type), ", got ",
                 DataTypeName(row[i].type())));
    }
  }
  return Status::OK();
}

Json RowToJson(const Row& row) {
  Json out = Json::MakeArray();
  for (const Value& v : row) out.Append(v.ToJson());
  return out;
}

void AppendRowJson(std::string* out, const Row& row) {
  // Value::ToJson's object, keys in Json's sorted order: {"t":..,"v":..}.
  out->push_back('[');
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (i > 0) out->push_back(',');
    *out += "{\"t\":";
    Json::AppendString(out, DataTypeName(v.type()));
    switch (v.type()) {
      case DataType::kNull:
        break;
      case DataType::kBool:
        *out += v.AsBool() ? ",\"v\":true" : ",\"v\":false";
        break;
      case DataType::kInt:
        *out += ",\"v\":";
        Json::AppendInt(out, v.AsInt());
        break;
      case DataType::kDouble:
        *out += ",\"v\":";
        Json::AppendDouble(out, v.AsDouble());
        break;
      case DataType::kString:
        *out += ",\"v\":";
        Json::AppendString(out, v.AsString());
        break;
    }
    out->push_back('}');
  }
  out->push_back(']');
}

Result<Row> RowFromJson(const Json& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("row JSON must be an array");
  }
  Row row;
  row.reserve(json.size());
  for (const Json& v : json.AsArray()) {
    MEDSYNC_ASSIGN_OR_RETURN(Value value, Value::FromJson(v));
    row.push_back(std::move(value));
  }
  return row;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace medsync::relational
