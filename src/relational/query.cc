#include "relational/query.h"

#include <map>

#include "common/strings.h"
#include "relational/chunk.h"

namespace medsync::relational {

namespace {

bool CompareWith(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

/// Column-at-a-time predicate evaluation over one sealed chunk, writing one
/// match byte per row into `out` (resized by the caller). Semantics match
/// Predicate::Evaluate row-for-row: comparisons involving NULL are false,
/// and cross-type comparisons order by type index first — which for a typed
/// column means every non-NULL cell compares the same way, a per-chunk
/// constant. String comparisons run once per dictionary entry and are then
/// mapped through the codes.
Status EvaluateOnChunk(const Predicate& pred, const Schema& schema,
                       const Chunk& chunk, std::vector<uint8_t>* out) {
  const size_t n = chunk.row_count();
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      std::fill(out->begin(), out->end(), 1);
      return Status::OK();
    case Predicate::Kind::kIsNull: {
      std::optional<size_t> idx = schema.IndexOf(pred.attribute());
      if (!idx.has_value()) {
        return Status::NotFound(StrCat(
            "predicate references unknown attribute '", pred.attribute(),
            "'"));
      }
      const Chunk::Column& col = chunk.column(*idx);
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = (col.type == DataType::kNull || col.IsNull(i)) ? 1 : 0;
      }
      return Status::OK();
    }
    case Predicate::Kind::kCompare: {
      std::optional<size_t> idx = schema.IndexOf(pred.attribute());
      if (!idx.has_value()) {
        return Status::NotFound(StrCat(
            "predicate references unknown attribute '", pred.attribute(),
            "'"));
      }
      const Chunk::Column& col = chunk.column(*idx);
      const Value& lit = pred.literal();
      if (lit.is_null() || col.type == DataType::kNull) {
        std::fill(out->begin(), out->end(), 0);
        return Status::OK();
      }
      const CompareOp op = pred.op();
      if (col.type != lit.type()) {
        // Cross-type: every non-NULL cell of this column compares to the
        // literal by type index alone.
        const uint8_t pass = CompareWith(
            op, Cmp(static_cast<int>(col.type), static_cast<int>(lit.type())))
                ? 1
                : 0;
        for (size_t i = 0; i < n; ++i) {
          (*out)[i] = col.IsNull(i) ? 0 : pass;
        }
        return Status::OK();
      }
      switch (col.type) {
        case DataType::kBool: {
          const bool b = lit.AsBool();
          for (size_t i = 0; i < n; ++i) {
            (*out)[i] = !col.IsNull(i) &&
                        CompareWith(op, Cmp(col.bools[i] != 0, b));
          }
          return Status::OK();
        }
        case DataType::kInt: {
          const int64_t v = lit.AsInt();
          for (size_t i = 0; i < n; ++i) {
            (*out)[i] = !col.IsNull(i) && CompareWith(op, Cmp(col.ints[i], v));
          }
          return Status::OK();
        }
        case DataType::kDouble: {
          const double v = lit.AsDouble();
          for (size_t i = 0; i < n; ++i) {
            (*out)[i] =
                !col.IsNull(i) && CompareWith(op, Cmp(col.doubles[i], v));
          }
          return Status::OK();
        }
        case DataType::kString: {
          const std::string& v = lit.AsString();
          std::vector<uint8_t> dict_pass(col.dict.size());
          for (size_t d = 0; d < col.dict.size(); ++d) {
            dict_pass[d] = CompareWith(op, Cmp(col.dict[d], v)) ? 1 : 0;
          }
          for (size_t i = 0; i < n; ++i) {
            (*out)[i] = !col.IsNull(i) && dict_pass[col.codes[i]];
          }
          return Status::OK();
        }
        case DataType::kNull:
          break;
      }
      return Status::Internal("unhandled column type");
    }
    case Predicate::Kind::kAnd: {
      std::vector<uint8_t> rhs(n);
      MEDSYNC_RETURN_IF_ERROR(
          EvaluateOnChunk(*pred.left(), schema, chunk, out));
      MEDSYNC_RETURN_IF_ERROR(
          EvaluateOnChunk(*pred.right(), schema, chunk, &rhs));
      for (size_t i = 0; i < n; ++i) (*out)[i] &= rhs[i];
      return Status::OK();
    }
    case Predicate::Kind::kOr: {
      std::vector<uint8_t> rhs(n);
      MEDSYNC_RETURN_IF_ERROR(
          EvaluateOnChunk(*pred.left(), schema, chunk, out));
      MEDSYNC_RETURN_IF_ERROR(
          EvaluateOnChunk(*pred.right(), schema, chunk, &rhs));
      for (size_t i = 0; i < n; ++i) (*out)[i] |= rhs[i];
      return Status::OK();
    }
    case Predicate::Kind::kNot:
      MEDSYNC_RETURN_IF_ERROR(
          EvaluateOnChunk(*pred.left(), schema, chunk, out));
      for (size_t i = 0; i < n; ++i) (*out)[i] ^= 1;
      return Status::OK();
  }
  return Status::Internal("unhandled predicate kind");
}

}  // namespace

Result<Table> Project(const Table& input,
                      const std::vector<std::string>& attributes,
                      const std::vector<std::string>& key_attributes) {
  const Schema& in_schema = input.schema();
  std::vector<AttributeDef> out_attrs;
  std::vector<size_t> indices;
  for (const std::string& name : attributes) {
    std::optional<size_t> idx = in_schema.IndexOf(name);
    if (!idx.has_value()) {
      return Status::NotFound(
          StrCat("projection references unknown attribute '", name, "'"));
    }
    out_attrs.push_back(in_schema.attributes()[*idx]);
    indices.push_back(*idx);
  }
  // A projected view keyed by `key_attributes` requires those attributes to
  // be non-null in every row, so the view schema tightens them even when
  // the source column was nullable (a NULL there fails row validation,
  // which is the correct error).
  for (AttributeDef& attr : out_attrs) {
    for (const std::string& key : key_attributes) {
      if (attr.name == key) attr.nullable = false;
    }
  }
  MEDSYNC_ASSIGN_OR_RETURN(Schema out_schema,
                           Schema::Create(out_attrs, key_attributes));

  Table out(out_schema);
  for (const auto& [key, row] : input.scan()) {
    Row projected;
    projected.reserve(indices.size());
    for (size_t idx : indices) projected.push_back(row[idx]);

    Key out_key = KeyOf(out_schema, projected);
    std::optional<Row> existing = out.Get(out_key);
    if (existing.has_value()) {
      if (*existing != projected) {
        return Status::Conflict(
            StrCat("projection is not key-functional: key ",
                   RowToString(out_key), " maps to two distinct rows"));
      }
      continue;  // duplicate identical row collapses
    }
    MEDSYNC_RETURN_IF_ERROR(out.Insert(std::move(projected)));
  }
  return out;
}

Result<Table> Select(const Table& input, const Predicate::Ptr& predicate) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("selection predicate must not be null");
  }
  MEDSYNC_RETURN_IF_ERROR(predicate->Validate(input.schema()));
  Table out(input.schema());
  // Sealed chunks take the vectorized path: predicate → per-row match bytes
  // evaluated column-at-a-time, then only matching live rows materialize.
  std::vector<uint8_t> matches;
  for (const auto& chunk : input.chunks()) {
    matches.assign(chunk->row_count(), 0);
    MEDSYNC_RETURN_IF_ERROR(
        EvaluateOnChunk(*predicate, input.schema(), *chunk, &matches));
    for (size_t i = 0; i < chunk->row_count(); ++i) {
      if (matches[i] && input.ChunkRowIsLive(*chunk, i)) {
        MEDSYNC_RETURN_IF_ERROR(out.Insert(chunk->RowAt(i)));
      }
    }
  }
  for (const auto& [key, row] : input.head()) {
    MEDSYNC_ASSIGN_OR_RETURN(bool keep,
                             predicate->Evaluate(input.schema(), row));
    if (keep) MEDSYNC_RETURN_IF_ERROR(out.Insert(row));
  }
  return out;
}

Result<Table> Rename(
    const Table& input,
    const std::vector<std::pair<std::string, std::string>>& renames) {
  const Schema& in_schema = input.schema();
  std::map<std::string, std::string> mapping;
  for (const auto& [from, to] : renames) {
    if (!in_schema.HasAttribute(from)) {
      return Status::NotFound(
          StrCat("rename references unknown attribute '", from, "'"));
    }
    if (!mapping.emplace(from, to).second) {
      return Status::InvalidArgument(
          StrCat("attribute '", from, "' renamed twice"));
    }
  }

  std::vector<AttributeDef> out_attrs;
  for (const AttributeDef& attr : in_schema.attributes()) {
    AttributeDef def = attr;
    auto it = mapping.find(attr.name);
    if (it != mapping.end()) def.name = it->second;
    out_attrs.push_back(std::move(def));
  }
  std::vector<std::string> out_keys;
  for (const std::string& key : in_schema.key_attributes()) {
    auto it = mapping.find(key);
    out_keys.push_back(it != mapping.end() ? it->second : key);
  }
  MEDSYNC_ASSIGN_OR_RETURN(Schema out_schema,
                           Schema::Create(out_attrs, out_keys));
  Table out(out_schema);
  for (const auto& [key, row] : input.scan()) {
    MEDSYNC_RETURN_IF_ERROR(out.Insert(row));
  }
  return out;
}

}  // namespace medsync::relational
