// AES-GCM implementation tiers (DESIGN.md §10).
//
// AesGcm composes GCM from two per-tier primitives — a CTR keystream
// XOR and the tag (GHASH over AAD and ciphertext, XORed with E(K, J0)) —
// and three tiers implement them on different silicon:
//
//   kPortable  FIPS 197 block + 8-bit Shoup GHASH tables (aead.cc)
//   kAesNi     AES-NI + PCLMULQDQ on 128-bit registers (gcm_aesni.cc)
//   kVaes512   VAES + VPCLMULQDQ on 512-bit registers (gcm_vaes512.cc)
//
// GCM is exact, so every tier produces the same ciphertext and tag
// bytes and the choice is a speed decision only. AesGcm picks the
// fastest tier the host supports on every call (MVTEE_SIMD=0 or a live
// util::ScopedForceScalar forces kPortable).
//
// The vector tiers live in their own translation units built with
// per-file ISA flags and are entered only after CPUID approves them.
// Those TUs include nothing from the library but this header, which
// declares no inline code: a COMDAT helper compiled with AVX-512 flags
// could otherwise be the copy the linker keeps for baseline callers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mvtee::crypto {

enum class GcmTier : uint8_t { kPortable, kAesNi, kVaes512 };

// "portable", "aesni128", "vaes512".
const char* GcmTierName(GcmTier tier);

// The binary carries the tier and CPUID says the host runs it
// (MVTEE_SIMD aside). kPortable is always supported.
bool GcmTierSupported(GcmTier tier);

// The tier AesGcm runs on this thread right now.
GcmTier SelectedGcmTier();

// Test and bench hook: while live, every AesGcm call on the constructing
// thread runs `tier`, whatever MVTEE_SIMD says, so one process can
// compare the tiers byte for byte. `tier` must be supported. Scopes
// nest; each restores the pin it replaced.
class ScopedGcmTier {
 public:
  explicit ScopedGcmTier(GcmTier tier);
  ~ScopedGcmTier();
  ScopedGcmTier(const ScopedGcmTier&) = delete;
  ScopedGcmTier& operator=(const ScopedGcmTier&) = delete;

 private:
  int previous_;
};

namespace gcm {

// Per-key material of the vector tiers, built once by AesGcm's
// constructor.
struct VectorKey {
  // Round keys 0..rounds in the byte order AESENC takes them.
  alignas(64) uint8_t round_keys[15][16];
  // h_powers[i] = H^(16 - i): H^16 first, H^1 last, so the powers for
  // the trailing n blocks of a group are the last n entries. Each is
  // byte-reflected (the 16 GCM bytes reversed), which is the operand
  // order the carry-less multiply works in.
  alignas(64) uint8_t h_powers[16][16];
  int rounds;
};

// Both vector tiers implement the same two entry points:
//
//   CtrXor  out[i] = in[i] ^ keystream[i] for i < len, the keystream
//           being E(K, inc32(j0)), E(K, inc32^2(j0)), ...: the 32-bit
//           counter in j0[12..16) advances before each block and wraps
//           mod 2^32 without carrying into j0[0..12). in and out may
//           alias exactly.
//   Tag     tag = GHASH_H(aad || pad || ct || pad || lengths) ^ E(K, j0).
//
// Compiled() is false when the build target lacks the ISA flags; the
// TU then holds stubs that must not be called.
namespace aesni {
bool Compiled();
void CtrXor(const VectorKey& key, const uint8_t j0[16], const uint8_t* in,
            uint8_t* out, size_t len);
void Tag(const VectorKey& key, const uint8_t j0[16], const uint8_t* aad,
         size_t aad_len, const uint8_t* ct, size_t ct_len, uint8_t tag[16]);
}  // namespace aesni

namespace vaes512 {
bool Compiled();
void CtrXor(const VectorKey& key, const uint8_t j0[16], const uint8_t* in,
            uint8_t* out, size_t len);
void Tag(const VectorKey& key, const uint8_t j0[16], const uint8_t* aad,
         size_t aad_len, const uint8_t* ct, size_t ct_len, uint8_t tag[16]);
}  // namespace vaes512

}  // namespace gcm
}  // namespace mvtee::crypto
