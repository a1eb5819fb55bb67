// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the record-protection AEAD used for all inter-TEE traffic and
// the sealed/encrypted filesystem, mirroring the paper's AES-GCM-256
// deployment. Nonces are 96-bit; tags are 128-bit and appended to the
// ciphertext.
#pragma once

#include <cstdint>

#include "crypto/aes.h"
#include "crypto/gcm_tiers.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mvtee::crypto {

inline constexpr size_t kGcmNonceSize = 12;
inline constexpr size_t kGcmTagSize = 16;

class AesGcm {
 public:
  // key: 16 bytes (AES-128-GCM) or 32 bytes (AES-256-GCM).
  explicit AesGcm(util::ByteSpan key);

  // Returns ciphertext || tag.
  util::Bytes Seal(util::ByteSpan nonce, util::ByteSpan aad,
                   util::ByteSpan plaintext) const;

  // Verifies the tag and decrypts. Fails with kAuthenticationFailure on
  // any tampering of nonce, aad, ciphertext or tag.
  util::Result<util::Bytes> Open(util::ByteSpan nonce, util::ByteSpan aad,
                                 util::ByteSpan ciphertext_with_tag) const;

  // Zero-copy variants for the pooled data plane: the caller's buffer
  // holds plaintext_len bytes of plaintext and at least kGcmTagSize
  // spare bytes after them. SealInPlace encrypts buf[0..plaintext_len)
  // in place (CTR is a self-inverse XOR stream, so aliasing is safe)
  // and writes the tag at buf[plaintext_len..plaintext_len+16).
  void SealInPlace(util::ByteSpan nonce, util::ByteSpan aad, uint8_t* buf,
                   size_t plaintext_len) const;

  // Inverse: buf holds ciphertext || tag (total `len` bytes). Verifies
  // the tag first, then decrypts in place; on success returns the
  // plaintext length (len - kGcmTagSize) and buf[0..plaintext_len)
  // holds plaintext. On failure the ciphertext is left untouched.
  util::Result<size_t> OpenInPlace(util::ByteSpan nonce, util::ByteSpan aad,
                                   uint8_t* buf, size_t len) const;

 private:
  // The two GCM primitives, run on `tier` (gcm_tiers.h). Every tier
  // computes the same exact GF(2^128) and AES arithmetic, so ciphertext
  // and tags are identical whichever one runs.
  void CtrCrypt(GcmTier tier, const uint8_t j0[16], const uint8_t* in,
                uint8_t* out, size_t len) const;
  void ComputeTag(GcmTier tier, const uint8_t j0[16], util::ByteSpan aad,
                  util::ByteSpan ciphertext, uint8_t tag[16]) const;
  // Portable GHASH: folds `len` bytes (zero-padded to a block) into the
  // running state (zh, zl) with the 8-bit tables.
  void GHashPortable(uint64_t& zh, uint64_t& zl, const uint8_t* data,
                     size_t len) const;

  Aes aes_;
  // Round keys and H^1..H^16 for the vector tiers, built once per key.
  gcm::VectorKey vkey_;
  // Shoup 8-bit GHASH tables (4 KiB) for the portable path.
  uint64_t hl_[256];
  uint64_t hh_[256];
};

// True when Seal/Open/SealInPlace/OpenInPlace run a vector tier (AES-NI
// or VAES) on this thread right now; SelectedGcmTier() names which.
// Output bytes are identical either way.
bool AesGcmAccelerated();

}  // namespace mvtee::crypto
