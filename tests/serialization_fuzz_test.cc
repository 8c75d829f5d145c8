// Randomized round-trip ("fuzz-lite") tests for every serialization layer
// the protocol depends on: JSON documents, tables, deltas, lens specs,
// transactions, and blocks. A wire-format asymmetry anywhere here would
// silently break digests, signatures, or replica determinism, so these
// sweeps are cheap insurance. The fetch_response delta payload is also fed
// hostile bytes and hostile structure through the receiver's check.

#include <gtest/gtest.h>

#include "bx/compose_lens.h"
#include "bx/lens_factory.h"
#include "chain/block.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/peer.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/delta.h"

namespace medsync {
namespace {

Json RandomJson(Rng* rng, int depth) {
  switch (rng->NextBelow(depth <= 0 ? 5 : 7)) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng->NextBool());
    case 2:
      return Json(static_cast<int64_t>(rng->NextUint64()));
    case 3:
      // Round doubles survive text round trips exactly (%.17g).
      return Json(static_cast<double>(rng->NextInRange(-1000, 1000)) / 8.0);
    case 4: {
      // Strings with hostile characters.
      std::string s = rng->NextAlnumString(rng->NextBelow(12));
      if (rng->NextBool(0.4)) s += "\"\\\n\t\x01";
      if (rng->NextBool(0.2)) s += "\xc3\xa9";  // UTF-8 é
      return Json(std::move(s));
    }
    case 5: {
      Json arr = Json::MakeArray();
      size_t n = rng->NextBelow(5);
      for (size_t i = 0; i < n; ++i) {
        arr.Append(RandomJson(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::MakeObject();
      size_t n = rng->NextBelow(5);
      for (size_t i = 0; i < n; ++i) {
        obj.Set(rng->NextAlnumString(1 + rng->NextBelow(8)),
                RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, JsonRoundTripsAndIsCanonical) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Json doc = RandomJson(&rng, 4);
    std::string compact = doc.Dump();
    Result<Json> reparsed = Json::Parse(compact);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << compact;
    EXPECT_EQ(*reparsed, doc);
    // Canonical: re-serializing the parse is byte-identical (the property
    // transaction digests rely on).
    EXPECT_EQ(reparsed->Dump(), compact);
    // Pretty output parses back too.
    Result<Json> pretty = Json::Parse(doc.DumpPretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(*pretty, doc);
  }
}

TEST_P(FuzzTest, JsonParserSurvivesMutilatedInput) {
  Rng rng(GetParam());
  Json doc = RandomJson(&rng, 4);
  std::string text = doc.Dump();
  for (int i = 0; i < 100; ++i) {
    std::string mutated = text;
    size_t pos = rng.NextBelow(mutated.size() + 1);
    switch (rng.NextBelow(3)) {
      case 0:
        if (!mutated.empty() && pos < mutated.size()) {
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
        }
        break;
      case 1:
        mutated.insert(pos, 1, static_cast<char>(rng.NextBelow(256)));
        break;
      default:
        if (pos < mutated.size()) mutated.erase(pos, 1);
        break;
    }
    // Must never crash; may or may not parse.
    Result<Json> result = Json::Parse(mutated);
    if (result.ok()) {
      // If it parsed, it must re-serialize consistently.
      EXPECT_EQ(Json::Parse(result->Dump())->Dump(), result->Dump());
    }
  }
}

TEST_P(FuzzTest, TableRoundTripsThroughJson) {
  medical::GeneratorConfig config;
  config.seed = GetParam() * 7919 + 1;
  config.record_count = 1 + (GetParam() % 60);
  relational::Table table = medical::GenerateFullRecords(config);
  Result<relational::Table> back = relational::Table::FromJson(table.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, table);
  EXPECT_EQ(back->ContentDigest(), table.ContentDigest());
}

TEST_P(FuzzTest, DeltaRoundTripsThroughJson) {
  Rng rng(GetParam());
  medical::GeneratorConfig config;
  config.seed = GetParam() * 104729 + 3;
  config.record_count = 20;
  relational::Table before = medical::GenerateFullRecords(config);
  relational::Table after = before;
  // Random mutations.
  std::vector<relational::Row> rows = after.RowsInKeyOrder();
  for (int i = 0; i < 5; ++i) {
    const relational::Row& victim = rows[rng.NextIndex(rows.size())];
    relational::Key key = relational::KeyOf(after.schema(), victim);
    if (rng.NextBool(0.3)) {
      IgnoreStatusForTest(after.Delete(key));
    } else {
      IgnoreStatusForTest(
          after.UpdateAttribute(key, medical::kDosage,
                                relational::Value::String(
                                    rng.NextAlnumString(8))));
    }
  }
  Result<relational::TableDelta> delta = relational::ComputeDelta(before,
                                                                  after);
  ASSERT_TRUE(delta.ok());
  Result<relational::TableDelta> back =
      relational::TableDelta::FromJson(delta->ToJson());
  ASSERT_TRUE(back.ok());
  relational::Table patched = before;
  ASSERT_TRUE(relational::ApplyDelta(*back, &patched).ok());
  EXPECT_EQ(patched, after);
}

TEST_P(FuzzTest, TransactionDigestStableThroughJson) {
  Rng rng(GetParam());
  crypto::KeyPair key = crypto::KeyPair::FromSeed(
      StrCat("fuzz-", GetParam() % 5));
  chain::Transaction tx;
  tx.from = key.address();
  tx.to = rng.NextBool() ? crypto::Address::Zero()
                         : crypto::KeyPair::FromSeed("target").address();
  tx.nonce = rng.NextUint64();
  tx.method = rng.NextAlnumString(1 + rng.NextBelow(10));
  tx.params = RandomJson(&rng, 3);
  tx.timestamp = static_cast<Micros>(rng.NextBelow(1u << 30));
  tx.Sign(key);

  Result<chain::Transaction> back = chain::Transaction::FromJson(tx.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Id(), tx.Id());
  EXPECT_TRUE(back->VerifySignature());
}

TEST_P(FuzzTest, BlockRoundTripPreservesHashAndMerkleRoot) {
  Rng rng(GetParam());
  crypto::KeyPair key = crypto::KeyPair::FromSeed("fuzz-block-signer");
  chain::Block block;
  block.header.height = rng.NextBelow(1000);
  block.header.parent = crypto::Sha256::Hash(rng.NextAlnumString(8));
  block.header.timestamp = static_cast<Micros>(rng.NextBelow(1u << 30));
  size_t tx_count = rng.NextBelow(6);
  for (size_t i = 0; i < tx_count; ++i) {
    chain::Transaction tx;
    tx.from = key.address();
    tx.to = crypto::KeyPair::FromSeed("t").address();
    tx.nonce = i;
    tx.method.append("m");
    tx.params = RandomJson(&rng, 2);
    tx.timestamp = 1;
    tx.Sign(key);
    block.transactions.push_back(std::move(tx));
  }
  block.header.merkle_root = block.ComputeMerkleRoot();

  Result<chain::Block> back = chain::Block::FromJson(block.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->header.Hash(), block.header.Hash());
  EXPECT_EQ(back->ComputeMerkleRoot(), block.header.merkle_root);
}

TEST_P(FuzzTest, LensSpecsRoundTripAndBehaveIdentically) {
  Rng rng(GetParam());
  medical::GeneratorConfig config;
  config.seed = GetParam() + 17;
  config.record_count = 15;
  relational::Table source = medical::GenerateFullRecords(config);

  // Random project+select composition.
  std::vector<std::string> attrs{medical::kPatientId};
  for (const char* attr :
       {medical::kMedicationName, medical::kDosage, medical::kAddress}) {
    if (rng.NextBool(0.7)) attrs.push_back(attr);
  }
  bx::LensPtr lens = bx::Compose(
      bx::MakeSelectLens(relational::Predicate::Compare(
          medical::kPatientId, relational::CompareOp::kLt,
          relational::Value::Int(
              1000 + static_cast<int64_t>(rng.NextBelow(20))))),
      bx::MakeProjectLens(attrs, {medical::kPatientId}));

  Result<bx::LensPtr> back = bx::LensFromJson(lens->ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  Result<relational::Table> v1 = lens->Get(source);
  Result<relational::Table> v2 = (*back)->Get(source);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);
}

/// One structural mutation of a delta payload: rows dropped, duplicated,
/// moved between sections or reshaped, values retyped, sections replaced.
void MutateDeltaStructure(Rng* rng, Json* delta) {
  static const char* const kSections[] = {"inserts", "deletes", "updates"};
  Json& section = delta->AsObject()[kSections[rng->NextBelow(3)]];
  if (!section.is_array() || section.AsArray().empty() ||
      rng->NextBool(0.1)) {
    section = RandomJson(rng, 2);
    return;
  }
  Json::Array& rows = section.AsArray();
  const size_t r = rng->NextIndex(rows.size());
  switch (rng->NextBelow(6)) {
    case 0:
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(r));
      break;
    case 1:
      rows.push_back(rows[r]);
      break;
    case 2: {
      Json moved = rows[r];
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(r));
      delta->AsObject()[kSections[rng->NextBelow(3)]].Append(
          std::move(moved));
      break;
    }
    case 3:
      if (rows[r].is_array() && !rows[r].AsArray().empty()) {
        rows[r].AsArray().pop_back();
      } else {
        rows[r] = RandomJson(rng, 1);
      }
      break;
    case 4:
      if (rows[r].is_array() && !rows[r].AsArray().empty()) {
        Json::Array& values = rows[r].AsArray();
        values[rng->NextIndex(values.size())] = RandomJson(rng, 0);
      }
      break;
    default:
      rows[r].Append(RandomJson(rng, 0));
      break;
  }
}

TEST_P(FuzzTest, FetchedDeltaPayloadIsRejectedOrLandsOnTarget) {
  Rng rng(GetParam());
  medical::GeneratorConfig config;
  config.seed = GetParam() * 7907 + 11;
  config.record_count = 40;
  relational::Table view = medical::GenerateFullRecords(config);
  // Sealed chunks, so the receiver's copy shares them.
  view.set_seal_threshold(8);
  view.Seal();
  relational::Table target = view;
  std::vector<relational::Row> rows = view.RowsInKeyOrder();
  for (int i = 0; i < 6; ++i) {
    const relational::Row& victim = rows[rng.NextIndex(rows.size())];
    relational::Key key = relational::KeyOf(view.schema(), victim);
    if (rng.NextBool(0.25)) {
      IgnoreStatusForTest(target.Delete(key));
    } else if (rng.NextBool(0.3)) {
      relational::Row fresh = victim;
      fresh[0] = relational::Value::Int(static_cast<int64_t>(
          config.first_patient_id + config.record_count + i));
      IgnoreStatusForTest(target.Insert(std::move(fresh)));
    } else {
      IgnoreStatusForTest(target.UpdateAttribute(
          key, medical::kDosage,
          relational::Value::String(rng.NextAlnumString(6))));
    }
  }
  const std::string digest = target.ContentDigest();
  const relational::Table original = view;
  const std::string original_digest = view.ContentDigest();
  Result<relational::TableDelta> honest =
      relational::ComputeDelta(view, target);
  ASSERT_TRUE(honest.ok());
  Json response = Json::MakeObject();
  response.Set("table_id", "D13&D31");
  response.Set("version", 2);
  response.Set("digest", digest);
  response.Set("delta", honest->ToJson());

  // The receiver's check accepts the payload, or rejects it with a
  // status; an accepted one lands exactly on the full fetch's table.
  size_t accepted = 0;
  auto check = [&](const Json& payload) {
    Result<relational::TableDelta> verified =
        core::VerifyFetchedDelta(view, payload.At("delta"), digest);
    EXPECT_EQ(view, original);
    EXPECT_EQ(view.ContentDigest(), original_digest);
    if (!verified.ok()) return;
    ++accepted;
    relational::Table applied = view;
    ASSERT_TRUE(relational::ApplyDelta(*verified, &applied).ok());
    EXPECT_EQ(applied, target);
  };
  check(response);
  ASSERT_EQ(accepted, 1u);

  // Byte mutations of the whole fetch_response body, decoded as the socket
  // transport decodes wire bytes.
  const std::string text = response.Dump();
  for (int i = 0; i < 200; ++i) {
    std::string mutated = text;
    for (int n = 1 + static_cast<int>(rng.NextBelow(3)); n > 0; --n) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.NextBelow(256)));
          break;
        default:
          mutated.erase(pos, 1);
          break;
      }
    }
    Result<Json> parsed = Json::ParseWire(mutated);
    if (parsed.ok()) check(*parsed);
  }

  // Structural mutations of the delta itself.
  for (int i = 0; i < 200; ++i) {
    Json mutated = response;
    Json delta = response.At("delta");
    for (int n = 1 + static_cast<int>(rng.NextBelow(3)); n > 0; --n) {
      MutateDeltaStructure(&rng, &delta);
    }
    mutated.Set("delta", std::move(delta));
    check(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace medsync
