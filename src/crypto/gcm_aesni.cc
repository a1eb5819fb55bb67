// AES-GCM on AES-NI + PCLMULQDQ with 128-bit registers: the tier for
// hosts without VAES (see gcm_tiers.h). Compiled with -maes -mpclmul
// -mssse3 (per-file, crypto/CMakeLists.txt); entered only after CPUID
// dispatch approves it.
#include "crypto/gcm_tiers.h"

#if defined(__AES__) && defined(__PCLMUL__) && defined(__SSSE3__)

#include <immintrin.h>

#include <cstring>

namespace mvtee::crypto::gcm::aesni {

bool Compiled() { return true; }

namespace {

// Blocks per pipelined CTR step and per GHASH reduction (H^1..H^8).
constexpr size_t kGroup = 8;

__m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

__m128i ByteSwap(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

struct RoundKeys {
  __m128i rk[15];
  int rounds;
};

RoundKeys LoadRoundKeys(const VectorKey& key) {
  RoundKeys k;
  k.rounds = key.rounds;
  for (int r = 0; r <= key.rounds; ++r) k.rk[r] = Load(key.round_keys[r]);
  return k;
}

__m128i Encrypt(const RoundKeys& k, __m128i block) {
  block = _mm_xor_si128(block, k.rk[0]);
  for (int r = 1; r < k.rounds; ++r) block = _mm_aesenc_si128(block, k.rk[r]);
  return _mm_aesenclast_si128(block, k.rk[k.rounds]);
}

// Unreduced carry-less products of byte-reflected operands, summed over
// a group: reduction is linear, so the group pays for one.
struct Product {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

void MulAdd(Product& acc, __m128i x, __m128i h) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(x, h, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(x, h, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(x, h, 0x01));
  acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(x, h, 0x10));
}

// Folds a 256-bit product modulo x^128 + x^7 + x^2 + x + 1 in GCM's
// reflected bit order (Intel CLMUL white paper, "gfmul"): a 1-bit left
// shift accounts for the reflection, then a two-phase shift-based
// reduction.
__m128i Reduce(const Product& p) {
  __m128i tmp3 = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i tmp6 = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));

  __m128i tmp7 = _mm_srli_epi32(tmp3, 31);
  __m128i tmp8 = _mm_srli_epi32(tmp6, 31);
  tmp3 = _mm_slli_epi32(tmp3, 1);
  tmp6 = _mm_slli_epi32(tmp6, 1);

  __m128i tmp9 = _mm_srli_si128(tmp7, 12);
  tmp8 = _mm_slli_si128(tmp8, 4);
  tmp7 = _mm_slli_si128(tmp7, 4);
  tmp3 = _mm_or_si128(tmp3, tmp7);
  tmp6 = _mm_or_si128(tmp6, tmp8);
  tmp6 = _mm_or_si128(tmp6, tmp9);

  tmp7 = _mm_slli_epi32(tmp3, 31);
  tmp8 = _mm_slli_epi32(tmp3, 30);
  tmp9 = _mm_slli_epi32(tmp3, 25);
  tmp7 = _mm_xor_si128(tmp7, tmp8);
  tmp7 = _mm_xor_si128(tmp7, tmp9);
  tmp8 = _mm_srli_si128(tmp7, 4);
  tmp7 = _mm_slli_si128(tmp7, 12);
  tmp3 = _mm_xor_si128(tmp3, tmp7);

  __m128i tmp2 = _mm_srli_epi32(tmp3, 1);
  __m128i tmp4 = _mm_srli_epi32(tmp3, 2);
  __m128i tmp5 = _mm_srli_epi32(tmp3, 7);
  tmp2 = _mm_xor_si128(tmp2, tmp4);
  tmp2 = _mm_xor_si128(tmp2, tmp5);
  tmp2 = _mm_xor_si128(tmp2, tmp8);
  tmp3 = _mm_xor_si128(tmp3, tmp2);
  return _mm_xor_si128(tmp6, tmp3);
}

// Folds `len` bytes into the reflected GHASH state y, zero-padding the
// last partial block: 8 blocks per reduction, block j of a group of n
// multiplied by H^(n-j).
__m128i GhashBytes(const VectorKey& key, __m128i y, const uint8_t* p,
                   size_t len) {
  while (len >= kGroup * 16) {
    Product acc;
#pragma GCC unroll 8
    for (size_t j = 0; j < kGroup; ++j) {
      __m128i x = ByteSwap(Load(p + 16 * j));
      if (j == 0) x = _mm_xor_si128(x, y);
      MulAdd(acc, x, Load(key.h_powers[16 - kGroup + j]));
    }
    y = Reduce(acc);
    p += kGroup * 16;
    len -= kGroup * 16;
  }
  if (len == 0) return y;
  const size_t n = (len + 15) / 16;
  Product acc;
  for (size_t j = 0; j < n; ++j) {
    uint8_t pad[16] = {0};
    const uint8_t* block = p + 16 * j;
    if (len < 16 * (j + 1)) {
      std::memcpy(pad, block, len - 16 * j);
      block = pad;
    }
    __m128i x = ByteSwap(Load(block));
    if (j == 0) x = _mm_xor_si128(x, y);
    MulAdd(acc, x, Load(key.h_powers[16 - n + j]));
  }
  return Reduce(acc);
}

}  // namespace

void CtrXor(const VectorKey& key, const uint8_t j0[16], const uint8_t* in,
            uint8_t* out, size_t len) {
  const RoundKeys k = LoadRoundKeys(key);
  // The counter lives byte-swapped in a register, so inc32 is one
  // 32-bit lane add: it wraps mod 2^32 and never carries into the nonce.
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
  __m128i ctr = ByteSwap(Load(j0));

  // AESENC has a multi-cycle latency but pipelines, so 8 independent
  // blocks keep the unit busy instead of serializing on one round chain.
  while (len >= kGroup * 16) {
    __m128i s[kGroup];
#pragma GCC unroll 8
    for (size_t b = 0; b < kGroup; ++b) {
      ctr = _mm_add_epi32(ctr, one);
      s[b] = _mm_xor_si128(ByteSwap(ctr), k.rk[0]);
    }
    for (int r = 1; r < k.rounds; ++r) {
#pragma GCC unroll 8
      for (size_t b = 0; b < kGroup; ++b) {
        s[b] = _mm_aesenc_si128(s[b], k.rk[r]);
      }
    }
#pragma GCC unroll 8
    for (size_t b = 0; b < kGroup; ++b) {
      s[b] = _mm_aesenclast_si128(s[b], k.rk[k.rounds]);
      Store(out + 16 * b, _mm_xor_si128(Load(in + 16 * b), s[b]));
    }
    in += kGroup * 16;
    out += kGroup * 16;
    len -= kGroup * 16;
  }
  while (len > 0) {
    ctr = _mm_add_epi32(ctr, one);
    const __m128i ks = Encrypt(k, ByteSwap(ctr));
    if (len >= 16) {
      Store(out, _mm_xor_si128(Load(in), ks));
      in += 16;
      out += 16;
      len -= 16;
      continue;
    }
    uint8_t buf[16];
    std::memcpy(buf, in, len);
    Store(buf, _mm_xor_si128(Load(buf), ks));
    std::memcpy(out, buf, len);
    len = 0;
  }
}

void Tag(const VectorKey& key, const uint8_t j0[16], const uint8_t* aad,
         size_t aad_len, const uint8_t* ct, size_t ct_len, uint8_t tag[16]) {
  __m128i y = GhashBytes(key, _mm_setzero_si128(), aad, aad_len);
  y = GhashBytes(key, y, ct, ct_len);
  // Length block [len(A) in bits || len(C) in bits], big-endian, seen
  // byte-reflected.
  const __m128i lengths =
      _mm_set_epi64x(static_cast<long long>(aad_len * 8),
                     static_cast<long long>(ct_len * 8));
  Product acc;
  MulAdd(acc, _mm_xor_si128(y, lengths), Load(key.h_powers[15]));
  y = Reduce(acc);
  const __m128i e_j0 = Encrypt(LoadRoundKeys(key), Load(j0));
  Store(tag, _mm_xor_si128(ByteSwap(y), e_j0));
}

}  // namespace mvtee::crypto::gcm::aesni

#else  // missing AES-NI/PCLMUL/SSSE3 flags: stubs so the TU links.

namespace mvtee::crypto::gcm::aesni {

bool Compiled() { return false; }
void CtrXor(const VectorKey&, const uint8_t[16], const uint8_t*, uint8_t*,
            size_t) {}
void Tag(const VectorKey&, const uint8_t[16], const uint8_t*, size_t,
         const uint8_t*, size_t, uint8_t[16]) {}

}  // namespace mvtee::crypto::gcm::aesni

#endif
