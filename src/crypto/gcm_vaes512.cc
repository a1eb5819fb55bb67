// AES-GCM on VAES + VPCLMULQDQ with 512-bit registers: the wide tier
// (see gcm_tiers.h). Each instruction encrypts or multiplies four
// blocks; CTR keeps its counters in registers and GHASH folds 16 blocks
// per reduction with the cached powers H^16..H^1.
//
// Compiled with -mavx512f -mavx512bw -mvaes -mvpclmulqdq (plus the
// AES-NI flags for the single-block E(K, J0) and the final reduction;
// per-file, crypto/CMakeLists.txt) and entered only after CPUID reports
// all of them. Everything here has internal linkage and no standard
// library template is instantiated, so no code built with these flags
// can be shared with the baseline TUs.
#include "crypto/gcm_tiers.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__VAES__) && \
    defined(__VPCLMULQDQ__) && defined(__AES__) && defined(__PCLMUL__)

// GCC 12's AVX-512 intrinsics seed some results with a self-initialized
// "undefined" register, which -Wuninitialized flags at every inlined use
// (a known false positive of that compiler).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace mvtee::crypto::gcm::vaes512 {

bool Compiled() { return true; }

namespace {

// CTR encrypts kCtrVecs x 4 blocks per step; GHASH reduces once per 16.
constexpr int kCtrVecs = 8;

__m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__m512i Load512(const uint8_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

__m128i ByteSwapMask128() {
  return _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}

// Selects the first min(bytes, 64) bytes of a 64-byte vector.
__mmask64 ByteMask(size_t bytes) {
  return bytes >= 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
}

struct RoundKeys {
  __m512i rk[15];  // each round key broadcast to all four lanes
  int rounds;
};

RoundKeys LoadRoundKeys(const VectorKey& key) {
  RoundKeys k;
  k.rounds = key.rounds;
  for (int r = 0; r <= key.rounds; ++r) {
    k.rk[r] = _mm512_broadcast_i32x4(Load128(key.round_keys[r]));
  }
  return k;
}

__m512i Encrypt4(const RoundKeys& k, __m512i blocks) {
  blocks = _mm512_xor_si512(blocks, k.rk[0]);
  for (int r = 1; r < k.rounds; ++r) {
    blocks = _mm512_aesenc_epi128(blocks, k.rk[r]);
  }
  return _mm512_aesenclast_epi128(blocks, k.rk[k.rounds]);
}

// Unreduced carry-less products of byte-reflected operands, four per
// register, summed over a group.
struct Product {
  __m512i lo = _mm512_setzero_si512();
  __m512i mid = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();
};

void MulAdd(Product& acc, __m512i x, __m512i h) {
  acc.lo = _mm512_xor_si512(acc.lo, _mm512_clmulepi64_epi128(x, h, 0x00));
  acc.hi = _mm512_xor_si512(acc.hi, _mm512_clmulepi64_epi128(x, h, 0x11));
  // 0x96 = three-way XOR.
  acc.mid = _mm512_ternarylogic_epi64(acc.mid,
                                      _mm512_clmulepi64_epi128(x, h, 0x01),
                                      _mm512_clmulepi64_epi128(x, h, 0x10),
                                      0x96);
}

// XOR of the four 128-bit lanes: swap halves, then swap neighbours.
__m128i FoldLanes(__m512i v) {
  v = _mm512_xor_si512(v, _mm512_shuffle_i64x2(v, v, 0x4e));
  v = _mm512_xor_si512(v, _mm512_shuffle_i64x2(v, v, 0xb1));
  return _mm512_castsi512_si128(v);
}

// Folds the 256-bit product (lo, mid, hi) modulo x^128 + x^7 + x^2 +
// x + 1 in GCM's reflected bit order (Intel CLMUL white paper, "gfmul"):
// a 1-bit left shift accounts for the reflection, then a two-phase
// shift-based reduction.
__m128i Reduce(__m128i lo, __m128i mid, __m128i hi) {
  __m128i tmp3 = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  __m128i tmp6 = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

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

__m128i Reduce(const Product& p) {
  return Reduce(FoldLanes(p.lo), FoldLanes(p.mid), FoldLanes(p.hi));
}

// Folds `len` bytes into the reflected GHASH state y, zero-padding the
// last partial block: 16 blocks per reduction, block j of a group of n
// multiplied by H^(n-j). The tail group uses masked loads, which never
// touch the bytes (or powers) past its end.
__m128i GhashBytes(const VectorKey& key, __m128i y, const uint8_t* p,
                   size_t len) {
  const __m512i bswap = _mm512_broadcast_i32x4(ByteSwapMask128());
  const uint8_t* powers = &key.h_powers[0][0];
  const __m512i h16_13 = Load512(powers);
  const __m512i h12_9 = Load512(powers + 64);
  const __m512i h8_5 = Load512(powers + 128);
  const __m512i h4_1 = Load512(powers + 192);
  while (len >= 256) {
    Product acc;
    const __m512i x0 = _mm512_xor_si512(
        _mm512_shuffle_epi8(Load512(p), bswap), _mm512_zextsi128_si512(y));
    MulAdd(acc, x0, h16_13);
    MulAdd(acc, _mm512_shuffle_epi8(Load512(p + 64), bswap), h12_9);
    MulAdd(acc, _mm512_shuffle_epi8(Load512(p + 128), bswap), h8_5);
    MulAdd(acc, _mm512_shuffle_epi8(Load512(p + 192), bswap), h4_1);
    y = Reduce(acc);
    p += 256;
    len -= 256;
  }
  if (len == 0) return y;
  const size_t n = (len + 15) / 16;  // 1..16 blocks, the last maybe partial
  const uint8_t* hp = powers + 16 * (16 - n);
  Product acc;
  for (size_t off = 0; off < len; off += 64) {
    __m512i x = _mm512_shuffle_epi8(
        _mm512_maskz_loadu_epi8(ByteMask(len - off), p + off), bswap);
    if (off == 0) x = _mm512_xor_si512(x, _mm512_zextsi128_si512(y));
    const size_t blocks = n - off / 16 >= 4 ? 4 : n - off / 16;
    const __mmask8 qwords = static_cast<__mmask8>((1u << (2 * blocks)) - 1);
    MulAdd(acc, x, _mm512_maskz_loadu_epi64(qwords, hp + off));
  }
  return Reduce(acc);
}

}  // namespace

void CtrXor(const VectorKey& key, const uint8_t j0[16], const uint8_t* in,
            uint8_t* out, size_t len) {
  const RoundKeys k = LoadRoundKeys(key);
  const __m512i bswap = _mm512_broadcast_i32x4(ByteSwapMask128());
  // Counters live byte-swapped in registers, one block per lane, so
  // inc32 is a 32-bit lane add: it wraps mod 2^32 and never carries into
  // the nonce. Lane i starts at inc32^(i+1)(j0).
  const __m512i four = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4,
                                        0, 0, 0, 4);
  __m512i ctr = _mm512_add_epi32(
      _mm512_broadcast_i32x4(_mm_shuffle_epi8(Load128(j0), ByteSwapMask128())),
      _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1));

  while (len >= kCtrVecs * 64) {
    __m512i s[kCtrVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kCtrVecs; ++v) {
      s[v] = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, bswap), k.rk[0]);
      ctr = _mm512_add_epi32(ctr, four);
    }
    for (int r = 1; r < k.rounds; ++r) {
#pragma GCC unroll 8
      for (int v = 0; v < kCtrVecs; ++v) {
        s[v] = _mm512_aesenc_epi128(s[v], k.rk[r]);
      }
    }
#pragma GCC unroll 8
    for (int v = 0; v < kCtrVecs; ++v) {
      s[v] = _mm512_aesenclast_epi128(s[v], k.rk[k.rounds]);
      _mm512_storeu_si512(reinterpret_cast<void*>(out + 64 * v),
                          _mm512_xor_si512(Load512(in + 64 * v), s[v]));
    }
    in += kCtrVecs * 64;
    out += kCtrVecs * 64;
    len -= kCtrVecs * 64;
  }
  while (len > 0) {
    const __m512i ks = Encrypt4(k, _mm512_shuffle_epi8(ctr, bswap));
    ctr = _mm512_add_epi32(ctr, four);
    const __mmask64 m = ByteMask(len);
    _mm512_mask_storeu_epi8(
        out, m, _mm512_xor_si512(_mm512_maskz_loadu_epi8(m, in), ks));
    const size_t step = len < 64 ? len : 64;
    in += step;
    out += step;
    len -= step;
  }
}

void Tag(const VectorKey& key, const uint8_t j0[16], const uint8_t* aad,
         size_t aad_len, const uint8_t* ct, size_t ct_len, uint8_t tag[16]) {
  __m128i y = GhashBytes(key, _mm_setzero_si128(), aad, aad_len);
  y = GhashBytes(key, y, ct, ct_len);
  // Length block [len(A) in bits || len(C) in bits], big-endian, seen
  // byte-reflected, times H^1.
  const __m128i x = _mm_xor_si128(
      y, _mm_set_epi64x(static_cast<long long>(aad_len * 8),
                        static_cast<long long>(ct_len * 8)));
  const __m128i h = Load128(key.h_powers[15]);
  y = Reduce(_mm_clmulepi64_si128(x, h, 0x00),
             _mm_xor_si128(_mm_clmulepi64_si128(x, h, 0x01),
                           _mm_clmulepi64_si128(x, h, 0x10)),
             _mm_clmulepi64_si128(x, h, 0x11));

  __m128i e_j0 = _mm_xor_si128(Load128(j0), Load128(key.round_keys[0]));
  for (int r = 1; r < key.rounds; ++r) {
    e_j0 = _mm_aesenc_si128(e_j0, Load128(key.round_keys[r]));
  }
  e_j0 = _mm_aesenclast_si128(e_j0, Load128(key.round_keys[key.rounds]));
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(tag),
      _mm_xor_si128(_mm_shuffle_epi8(y, ByteSwapMask128()), e_j0));
}

}  // namespace mvtee::crypto::gcm::vaes512

#else  // build target lacks the wide ISA flags: stubs so the TU links.

namespace mvtee::crypto::gcm::vaes512 {

bool Compiled() { return false; }
void CtrXor(const VectorKey&, const uint8_t[16], const uint8_t*, uint8_t*,
            size_t) {}
void Tag(const VectorKey&, const uint8_t[16], const uint8_t*, size_t,
         const uint8_t*, size_t, uint8_t[16]) {}

}  // namespace mvtee::crypto::gcm::vaes512

#endif
