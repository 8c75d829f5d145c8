#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace medsync::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(hasher.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog, repeatedly and with "
      "increasing enthusiasm until the block boundary is crossed";
  for (size_t split = 0; split <= data.size(); split += 7) {
    Sha256 hasher;
    hasher.Update(data.substr(0, split));
    hasher.Update(data.substr(split));
    EXPECT_EQ(hasher.Finish(), Sha256::Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaryInputs) {
  for (size_t len :
       {0u, 55u, 56u, 57u, 63u, 64u, 65u, 111u, 119u, 120u, 128u}) {
    std::string data(len, 'x');
    Sha256 hasher;
    for (char c : data) hasher.Update(&c, 1);
    EXPECT_EQ(hasher.Finish(), Sha256::Hash(data)) << "len=" << len;
  }
}

TEST(Sha256Test, PaddingKnownAnswersOnBothSidesOfTheLengthField) {
  // A final block with < 56 bytes takes the length in place; one with
  // >= 56 spills it into an extra block. Digests of 'x' * len.
  const std::pair<size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {111, "5ba60613dba318e9ed9020301e5dc59c721c19d82862e4d03718708aa75d2bad"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(Sha256::Hash(std::string(len, 'x')).ToHex(), hex)
        << "len=" << len;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 hasher;
  hasher.Update("garbage");
  hasher.Reset();
  hasher.Update("abc");
  EXPECT_EQ(hasher.Finish(), Sha256::Hash("abc"));
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 h = Sha256::Hash("seed");
  bool ok = false;
  Hash256 parsed = Hash256::FromHex(h.ToHex(), &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parsed, h);
}

TEST(Hash256Test, FromHexRejectsBadInput) {
  bool ok = true;
  Hash256::FromHex("abcd", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  Hash256::FromHex(std::string(64, 'z'), &ok);
  EXPECT_FALSE(ok);
}

TEST(Hash256Test, ZeroAndOrdering) {
  EXPECT_TRUE(Hash256::Zero().IsZero());
  EXPECT_FALSE(Sha256::Hash("x").IsZero());
  Hash256 a = Sha256::Hash("a");
  Hash256 b = Sha256::Hash("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) != (b < a));
  EXPECT_EQ(a.ShortHex(), a.ToHex().substr(0, 8));
}

TEST(Sha256Test, HashPairOrderSensitive) {
  Hash256 a = Sha256::Hash("left");
  Hash256 b = Sha256::Hash("right");
  EXPECT_NE(Sha256::HashPair(a, b), Sha256::HashPair(b, a));
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(HmacSha256(key, "Hi There").ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HmacSha256("Jefe", "what do ya want for nothing?").ToHex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 0xaa x20 key, 0xdd x50 data.
TEST(HmacTest, Rfc4231Case3) {
  std::string key(20, '\xaa');
  std::string data(50, '\xdd');
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacTest, LongKeyIsHashedFirst) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HmacSha256(key,
                       "Test Using Larger Than Block-Size Key - Hash Key "
                       "First")
                .ToHex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentMacs) {
  EXPECT_NE(HmacSha256("key1", "msg"), HmacSha256("key2", "msg"));
  EXPECT_NE(HmacSha256("key", "msg1"), HmacSha256("key", "msg2"));
}

}  // namespace
}  // namespace medsync::crypto
