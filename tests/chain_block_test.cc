#include "chain/block.h"

#include <gtest/gtest.h>

#include "chain/transaction.h"

namespace medsync::chain {
namespace {

Transaction MakeTx(const std::string& seed, uint64_t nonce) {
  crypto::KeyPair key = crypto::KeyPair::FromSeed(seed);
  Transaction tx;
  tx.from = key.address();
  tx.to = crypto::KeyPair::FromSeed("contract-holder").address();
  tx.nonce = nonce;
  tx.method = "request_update";
  Json params = Json::MakeObject();
  params.Set("table_id", "D13&D31");
  tx.params = std::move(params);
  tx.timestamp = 1234;
  tx.Sign(key);
  return tx;
}

TEST(TransactionTest, DigestIsStableAndSignatureIndependent) {
  Transaction tx = MakeTx("alice", 1);
  crypto::Hash256 digest = tx.Digest();
  EXPECT_EQ(digest, tx.Digest());
  Transaction unsigned_copy = tx;
  unsigned_copy.signature = crypto::Signature{};
  EXPECT_EQ(unsigned_copy.Digest(), digest);
}

TEST(TransactionTest, DigestChangesWithAnyField) {
  Transaction base = MakeTx("alice", 1);
  Transaction different_nonce = MakeTx("alice", 2);
  EXPECT_NE(base.Digest(), different_nonce.Digest());
  Transaction different_sender = MakeTx("bob", 1);
  EXPECT_NE(base.Digest(), different_sender.Digest());
}

TEST(TransactionTest, VerifyWithPrecomputedDigestMatchesVerify) {
  Transaction tx = MakeTx("alice", 1);
  EXPECT_TRUE(tx.VerifySignature(tx.Digest()));
  Transaction tampered = tx;
  tampered.params.Set("table_id", "SOMETHING-ELSE");
  // Handed the digest of the edited fields, the check fails exactly as
  // the no-argument form does.
  EXPECT_FALSE(tampered.VerifySignature(tampered.Digest()));
  EXPECT_FALSE(tampered.VerifySignature());
  Transaction spoofed = tx;
  spoofed.from = crypto::KeyPair::FromSeed("bob").address();
  EXPECT_FALSE(spoofed.VerifySignature(tx.Digest()));
}

TEST(TransactionTest, SignatureVerifies) {
  Transaction tx = MakeTx("alice", 1);
  EXPECT_TRUE(tx.VerifySignature());
}

TEST(TransactionTest, TamperedParamsFailVerification) {
  Transaction tx = MakeTx("alice", 1);
  tx.params.Set("table_id", "SOMETHING-ELSE");
  EXPECT_FALSE(tx.VerifySignature());
}

TEST(TransactionTest, SpoofedSenderFailsVerification) {
  Transaction tx = MakeTx("alice", 1);
  tx.from = crypto::KeyPair::FromSeed("bob").address();
  EXPECT_FALSE(tx.VerifySignature());
}

TEST(TransactionTest, JsonRoundTrip) {
  Transaction tx = MakeTx("alice", 7);
  Result<Transaction> back = Transaction::FromJson(tx.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Id(), tx.Id());
  EXPECT_TRUE(back->VerifySignature());
  EXPECT_EQ(back->method, "request_update");
  EXPECT_FALSE(Transaction::FromJson(Json(1)).ok());
  Json missing = Json::MakeObject();
  EXPECT_FALSE(Transaction::FromJson(missing).ok());
}

TEST(BlockTest, MerkleRootCommitsToTransactions) {
  Block block;
  block.transactions.push_back(MakeTx("alice", 1));
  block.transactions.push_back(MakeTx("bob", 1));
  crypto::Hash256 root = block.ComputeMerkleRoot();
  std::swap(block.transactions[0], block.transactions[1]);
  EXPECT_NE(block.ComputeMerkleRoot(), root);  // order matters
  Block empty;
  EXPECT_TRUE(empty.ComputeMerkleRoot().IsZero());
}

TEST(BlockTest, HeaderHashChangesWithFields) {
  BlockHeader h;
  h.height = 1;
  h.timestamp = 99;
  crypto::Hash256 base = h.Hash();
  BlockHeader h2 = h;
  h2.pow_nonce = 1;
  EXPECT_NE(h2.Hash(), base);
  BlockHeader h3 = h;
  h3.timestamp = 100;
  EXPECT_NE(h3.Hash(), base);
}

TEST(BlockTest, SealDigestExcludesSeal) {
  BlockHeader h;
  h.height = 5;
  crypto::Hash256 digest = h.SealDigest();
  h.seal = crypto::KeyPair::FromSeed("sealer").Sign("anything");
  EXPECT_EQ(h.SealDigest(), digest);  // seal not part of pre-image
  EXPECT_NE(h.Hash(), digest);        // but part of the block hash
}

TEST(BlockTest, JsonRoundTrip) {
  Block block;
  block.header.height = 3;
  block.header.parent = crypto::Sha256::Hash("parent");
  block.header.timestamp = 777;
  block.transactions.push_back(MakeTx("alice", 1));
  block.transactions.push_back(MakeTx("alice", 2));
  block.header.merkle_root = block.ComputeMerkleRoot();

  Result<Block> back = Block::FromJson(block.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->header.Hash(), block.header.Hash());
  EXPECT_EQ(back->transactions.size(), 2u);
  EXPECT_EQ(back->ComputeMerkleRoot(), block.header.merkle_root);
}

TEST(DifficultyTest, LeadingZeroBits) {
  crypto::Hash256 h;  // all zero
  EXPECT_TRUE(MeetsDifficulty(h, 0));
  EXPECT_TRUE(MeetsDifficulty(h, 256));
  h.bytes[0] = 0x01;  // 7 leading zero bits
  EXPECT_TRUE(MeetsDifficulty(h, 7));
  EXPECT_FALSE(MeetsDifficulty(h, 8));
  h.bytes[0] = 0x00;
  h.bytes[1] = 0x80;  // exactly 8 leading zero bits
  EXPECT_TRUE(MeetsDifficulty(h, 8));
  EXPECT_FALSE(MeetsDifficulty(h, 9));
  h.bytes[1] = 0x00;
  h.bytes[2] = 0xff;  // 16 leading zero bits
  EXPECT_TRUE(MeetsDifficulty(h, 16));
  EXPECT_FALSE(MeetsDifficulty(h, 17));
}

}  // namespace
}  // namespace medsync::chain
