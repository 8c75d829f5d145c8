#include "crypto/sha256.h"

#include <cstring>

#include "common/strings.h"

namespace medsync::crypto {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Hash256 Hash256::FromHex(std::string_view hex, bool* ok) {
  Hash256 out;
  std::vector<uint8_t> bytes;
  if (hex.size() != 64 || !HexDecode(hex, &bytes)) {
    if (ok) *ok = false;
    return out;
  }
  std::memcpy(out.bytes.data(), bytes.data(), 32);
  if (ok) *ok = true;
  return out;
}

bool Hash256::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

std::string Hash256::ToHex() const {
  return HexEncode(bytes.data(), bytes.size());
}

std::string Hash256::ShortHex() const { return ToHex().substr(0, 8); }

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_size_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(size) * 8;
  while (size > 0) {
    size_t take = std::min(size, sizeof(buffer_) - buffer_size_);
    std::memcpy(buffer_ + buffer_size_, bytes, take);
    buffer_size_ += take;
    bytes += take;
    size -= take;
    if (buffer_size_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_size_ = 0;
    }
  }
}

void Sha256::Update(std::string_view data) { Update(data.data(), data.size()); }

void Sha256::Update(const std::vector<uint8_t>& data) {
  Update(data.data(), data.size());
}

Hash256 Sha256::Finish() {
  // Append 0x80, zero pad to 56 mod 64, then the 64-bit message length.
  static constexpr uint8_t kPadding[64] = {0x80};
  const size_t pad = buffer_size_ < 56 ? 56 - buffer_size_ : 120 - buffer_size_;
  uint8_t len[8];
  for (int i = 0; i < 8; ++i) {
    len[i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Update(kPadding, pad);
  Update(len, sizeof(len));

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out.bytes[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.bytes[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.bytes[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Hash256 Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256::Hash(const std::vector<uint8_t>& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256::HashPair(const Hash256& left, const Hash256& right) {
  Sha256 h;
  h.Update(left.bytes.data(), left.bytes.size());
  h.Update(right.bytes.data(), right.bytes.size());
  return h.Finish();
}

Hash256 HmacSha256(std::string_view key, std::string_view message) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize] = {0};
  if (key.size() > kBlockSize) {
    Hash256 kh = Sha256::Hash(key);
    std::memcpy(key_block, kh.bytes.data(), kh.bytes.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad, kBlockSize);
  inner.Update(message);
  Hash256 inner_hash = inner.Finish();

  Sha256 outer;
  outer.Update(opad, kBlockSize);
  outer.Update(inner_hash.bytes.data(), inner_hash.bytes.size());
  return outer.Finish();
}

}  // namespace medsync::crypto
