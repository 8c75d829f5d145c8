#include "bx/lens_factory.h"

#include "bx/compose_lens.h"
#include "bx/project_lens.h"
#include "bx/rename_lens.h"
#include "bx/select_lens.h"
#include "common/strings.h"

namespace medsync::bx {

Result<LensPtr> LensFromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("lens JSON must be an object");
  }
  MEDSYNC_ASSIGN_OR_RETURN(std::string kind, json.GetString("lens"));

  if (kind == "identity") {
    return MakeIdentityLens();
  }
  if (kind == "project") {
    const Json& attrs = json.At("attributes");
    const Json& keys = json.At("key");
    if (!attrs.is_array() || !keys.is_array()) {
      return Status::InvalidArgument(
          "project lens JSON needs 'attributes' and 'key' arrays");
    }
    std::vector<std::string> attributes;
    for (const Json& a : attrs.AsArray()) {
      if (!a.is_string()) {
        return Status::InvalidArgument("project attributes must be strings");
      }
      attributes.push_back(a.AsString());
    }
    std::vector<std::string> view_key;
    for (const Json& k : keys.AsArray()) {
      if (!k.is_string()) {
        return Status::InvalidArgument("project key entries must be strings");
      }
      view_key.push_back(k.AsString());
    }
    return MakeProjectLens(std::move(attributes), std::move(view_key));
  }
  if (kind == "select") {
    MEDSYNC_ASSIGN_OR_RETURN(relational::Predicate::Ptr predicate,
                             relational::Predicate::FromJson(
                                 json.At("predicate")));
    return MakeSelectLens(std::move(predicate));
  }
  if (kind == "rename") {
    const Json& pairs = json.At("renames");
    if (!pairs.is_array()) {
      return Status::InvalidArgument("rename lens JSON needs 'renames' array");
    }
    std::vector<std::pair<std::string, std::string>> renames;
    for (const Json& p : pairs.AsArray()) {
      MEDSYNC_ASSIGN_OR_RETURN(std::string from, p.GetString("from"));
      MEDSYNC_ASSIGN_OR_RETURN(std::string to, p.GetString("to"));
      renames.emplace_back(std::move(from), std::move(to));
    }
    return MakeRenameLens(std::move(renames));
  }
  if (kind == "compose") {
    const Json& stages_json = json.At("stages");
    if (!stages_json.is_array() || stages_json.size() == 0) {
      return Status::InvalidArgument(
          "compose lens JSON needs a non-empty 'stages' array");
    }
    std::vector<LensPtr> stages;
    for (const Json& s : stages_json.AsArray()) {
      MEDSYNC_ASSIGN_OR_RETURN(LensPtr stage, LensFromJson(s));
      stages.push_back(std::move(stage));
    }
    return LensPtr(std::make_shared<ComposeLens>(std::move(stages)));
  }
  return Status::InvalidArgument(StrCat("unknown lens kind '", kind, "'"));
}

Result<LensPtr> LensFromSpec(std::string_view spec_text) {
  MEDSYNC_ASSIGN_OR_RETURN(Json json, Json::Parse(spec_text));
  return LensFromJson(json);
}

LensPtr MakeIdentityLens() { return std::make_shared<IdentityLens>(); }

LensPtr MakeProjectLens(std::vector<std::string> attributes,
                        std::vector<std::string> view_key) {
  return std::make_shared<ProjectLens>(std::move(attributes),
                                       std::move(view_key));
}

LensPtr MakeSelectLens(relational::Predicate::Ptr predicate) {
  return std::make_shared<SelectLens>(std::move(predicate));
}

LensPtr MakeRenameLens(
    std::vector<std::pair<std::string, std::string>> renames) {
  return std::make_shared<RenameLens>(std::move(renames));
}

bool LensEqual(const LensPtr& a, const LensPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->ToJson() == b->ToJson();
}

}  // namespace medsync::bx
