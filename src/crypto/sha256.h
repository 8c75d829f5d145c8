#ifndef MEDSYNC_CRYPTO_SHA256_H_
#define MEDSYNC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace medsync::crypto {

/// A 32-byte digest. Hash256 is the identity type for blocks, transactions,
/// and Merkle nodes throughout the chain substrate.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  /// All-zero digest (used as the genesis parent hash).
  static Hash256 Zero() { return Hash256{}; }

  /// Parses a 64-character hex string; returns Zero() and sets ok=false on
  /// malformed input.
  static Hash256 FromHex(std::string_view hex, bool* ok);

  bool IsZero() const;

  /// Lowercase hex, 64 characters.
  std::string ToHex() const;

  /// First 8 hex characters — convenient for traces.
  std::string ShortHex() const;

  friend bool operator==(const Hash256& a, const Hash256& b) {
    return a.bytes == b.bytes;
  }
  friend bool operator!=(const Hash256& a, const Hash256& b) {
    return !(a == b);
  }
  friend bool operator<(const Hash256& a, const Hash256& b) {
    return a.bytes < b.bytes;
  }
};

/// Hash functor for unordered containers keyed by SHA-256 or HMAC outputs:
/// any 8 of their bytes are already a uniform hash.
struct Hash256Hash {
  size_t operator()(const Hash256& digest) const {
    size_t h = 0;
    std::memcpy(&h, digest.bytes.data(), sizeof(h));
    return h;
  }
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch — the
/// reproduction has no crypto library dependency.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `size` bytes.
  void Update(const void* data, size_t size);
  void Update(std::string_view data);
  void Update(const std::vector<uint8_t>& data);

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without Reset().
  Hash256 Finish();

  void Reset();

  /// One-shot helpers.
  static Hash256 Hash(std::string_view data);
  static Hash256 Hash(const std::vector<uint8_t>& data);

  /// Hash of the concatenation of two digests — the Merkle-tree node rule.
  static Hash256 HashPair(const Hash256& left, const Hash256& right);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_size_;
};

/// HMAC-SHA256 per RFC 2104; used by the simulated signature scheme.
Hash256 HmacSha256(std::string_view key, std::string_view message);

}  // namespace medsync::crypto

#endif  // MEDSYNC_CRYPTO_SHA256_H_
