#include "crypto/aead.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/cpu_features.h"
#include "util/dataplane_stats.h"

namespace mvtee::crypto {

namespace {

// Reduction constants for the 8-bit GHASH table method: kRem8[b] is the
// fold-back of the byte shifted out of the 128-bit window, XORed into
// the top 16 bits of the state. Bit j of the byte contributes
// (0xE1 << 56) >> (7 - j), i.e. 0x01C2 << j in the 16-bit frame —
// the 8-bit generalization of the classic 4-bit kLast4 table.
constexpr std::array<uint16_t, 256> MakeRem8() {
  std::array<uint16_t, 256> t{};
  for (int b = 0; b < 256; ++b) {
    uint32_t v = 0;
    for (int j = 0; j < 8; ++j) {
      if (b & (1 << j)) v ^= 0x01c2u << j;
    }
    t[static_cast<size_t>(b)] = static_cast<uint16_t>(v);
  }
  return t;
}
constexpr std::array<uint16_t, 256> kRem8 = MakeRem8();

inline uint64_t LoadU64BE(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

inline void StoreU64BE(uint8_t* p, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<uint8_t>(v);
    v >>= 8;
  }
}

// Z <- Z * H with the 8-bit tables, one byte digit at a time.
void MulH(const uint64_t* hh, const uint64_t* hl, uint64_t& zh,
          uint64_t& zl) {
  uint8_t x[16];
  StoreU64BE(x, zh);
  StoreU64BE(x + 8, zl);
  uint64_t rzh = hh[x[15]];
  uint64_t rzl = hl[x[15]];
  for (int i = 14; i >= 0; --i) {
    const uint8_t rem = static_cast<uint8_t>(rzl & 0xff);
    rzl = (rzh << 56) | (rzl >> 8);
    rzh = rzh >> 8;
    rzh ^= static_cast<uint64_t>(kRem8[rem]) << 48;
    rzh ^= hh[x[i]];
    rzl ^= hl[x[i]];
  }
  zh = rzh;
  zl = rzl;
}

void MakeJ0(util::ByteSpan nonce, uint8_t j0[16]) {
  std::memcpy(j0, nonce.data(), kGcmNonceSize);
  j0[12] = j0[13] = j0[14] = 0;
  j0[15] = 1;
}

// The tier pinned on this thread by a live ScopedGcmTier, or -1.
thread_local int t_pinned_tier = -1;

}  // namespace

const char* GcmTierName(GcmTier tier) {
  switch (tier) {
    case GcmTier::kPortable:
      return "portable";
    case GcmTier::kAesNi:
      return "aesni128";
    case GcmTier::kVaes512:
      return "vaes512";
  }
  return "unknown";
}

bool GcmTierSupported(GcmTier tier) {
  const util::CpuFeatures& f = util::HostCpuFeatures();
  const bool aes = f.aes && f.pclmul && f.ssse3;
  switch (tier) {
    case GcmTier::kPortable:
      return true;
    case GcmTier::kAesNi:
      return gcm::aesni::Compiled() && aes;
    case GcmTier::kVaes512:
      // __builtin_cpu_supports also checks that the OS saves the ZMM
      // register state.
      return gcm::vaes512::Compiled() && aes && f.avx512f && f.avx512bw &&
             f.vaes && f.vpclmulqdq;
  }
  return false;
}

GcmTier SelectedGcmTier() {
  if (t_pinned_tier >= 0) return static_cast<GcmTier>(t_pinned_tier);
  if (!util::UseAesGcmAccel()) return GcmTier::kPortable;
  static const GcmTier fastest =
      GcmTierSupported(GcmTier::kVaes512) ? GcmTier::kVaes512
      : GcmTierSupported(GcmTier::kAesNi) ? GcmTier::kAesNi
                                          : GcmTier::kPortable;
  return fastest;
}

ScopedGcmTier::ScopedGcmTier(GcmTier tier) : previous_(t_pinned_tier) {
  MVTEE_CHECK(GcmTierSupported(tier));
  t_pinned_tier = static_cast<int>(tier);
}

ScopedGcmTier::~ScopedGcmTier() { t_pinned_tier = previous_; }

bool AesGcmAccelerated() {
  return SelectedGcmTier() != GcmTier::kPortable;
}

AesGcm::AesGcm(util::ByteSpan key) : aes_(key) {
  MVTEE_CHECK(key.size() == 16 || key.size() == 32);

  uint8_t h[16] = {0};
  aes_.EncryptBlock(h, h);
  uint64_t vh = LoadU64BE(h);
  uint64_t vl = LoadU64BE(h + 8);

  // 8-bit Shoup tables: base entries at the single-bit indices are
  // H · x^{-j} (index 0x80 >> j), every other index is the XOR of its
  // set bits' bases.
  hh_[0] = 0;
  hl_[0] = 0;
  hh_[0x80] = vh;
  hl_[0x80] = vl;
  for (int i = 0x40; i > 0; i >>= 1) {
    uint32_t t = static_cast<uint32_t>(vl & 1) * 0xe1000000U;
    vl = (vh << 63) | (vl >> 1);
    vh = (vh >> 1) ^ (static_cast<uint64_t>(t) << 32);
    hl_[i] = vl;
    hh_[i] = vh;
  }
  for (int i = 2; i <= 0x80; i *= 2) {
    const uint64_t base_h = hh_[i], base_l = hl_[i];
    for (int j = 1; j < i; ++j) {
      hh_[i + j] = base_h ^ hh_[j];
      hl_[i + j] = base_l ^ hl_[j];
    }
  }

  // Vector-tier material: the portable schedule's big-endian words
  // serialized into AESENC byte order, and H^1..H^16 byte-reflected.
  vkey_.rounds = aes_.rounds();
  const uint32_t* w = aes_.round_key_words();
  for (int r = 0; r <= vkey_.rounds; ++r) {
    for (int b = 0; b < 16; ++b) {
      vkey_.round_keys[r][b] =
          static_cast<uint8_t>(w[4 * r + b / 4] >> (24 - 8 * (b % 4)));
    }
  }
  uint64_t ph = hh_[0x80], pl = hl_[0x80];  // H^1
  for (int i = 1; i <= 16; ++i) {
    uint8_t be[16];
    StoreU64BE(be, ph);
    StoreU64BE(be + 8, pl);
    for (int b = 0; b < 16; ++b) vkey_.h_powers[16 - i][15 - b] = be[b];
    MulH(hh_, hl_, ph, pl);
  }
}

void AesGcm::GHashPortable(uint64_t& zh, uint64_t& zl, const uint8_t* data,
                           size_t len) const {
  for (size_t off = 0; off < len; off += 16) {
    uint8_t block[16] = {0};
    std::memcpy(block, data + off, std::min<size_t>(16, len - off));
    zh ^= LoadU64BE(block);
    zl ^= LoadU64BE(block + 8);
    MulH(hh_, hl_, zh, zl);
  }
}

void AesGcm::CtrCrypt(GcmTier tier, const uint8_t j0[16], const uint8_t* in,
                      uint8_t* out, size_t len) const {
  switch (tier) {
    case GcmTier::kVaes512:
      gcm::vaes512::CtrXor(vkey_, j0, in, out, len);
      return;
    case GcmTier::kAesNi:
      gcm::aesni::CtrXor(vkey_, j0, in, out, len);
      return;
    case GcmTier::kPortable:
      break;
  }
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  uint8_t keystream[16];
  for (size_t i = 0; i < len; i += 16) {
    for (int b = 15; b >= 12; --b) {  // inc32
      if (++counter[b] != 0) break;
    }
    aes_.EncryptBlock(counter, keystream);
    const size_t n = std::min<size_t>(16, len - i);
    for (size_t k = 0; k < n; ++k) out[i + k] = in[i + k] ^ keystream[k];
  }
}

void AesGcm::ComputeTag(GcmTier tier, const uint8_t j0[16],
                        util::ByteSpan aad, util::ByteSpan ciphertext,
                        uint8_t tag[16]) const {
  switch (tier) {
    case GcmTier::kVaes512:
      gcm::vaes512::Tag(vkey_, j0, aad.data(), aad.size(), ciphertext.data(),
                        ciphertext.size(), tag);
      return;
    case GcmTier::kAesNi:
      gcm::aesni::Tag(vkey_, j0, aad.data(), aad.size(), ciphertext.data(),
                      ciphertext.size(), tag);
      return;
    case GcmTier::kPortable:
      break;
  }
  uint64_t zh = 0, zl = 0;
  GHashPortable(zh, zl, aad.data(), aad.size());
  GHashPortable(zh, zl, ciphertext.data(), ciphertext.size());
  zh ^= static_cast<uint64_t>(aad.size()) * 8;
  zl ^= static_cast<uint64_t>(ciphertext.size()) * 8;
  MulH(hh_, hl_, zh, zl);

  uint8_t e_j0[16];
  aes_.EncryptBlock(j0, e_j0);
  StoreU64BE(tag, zh);
  StoreU64BE(tag + 8, zl);
  for (int i = 0; i < 16; ++i) tag[i] ^= e_j0[i];
}

void AesGcm::SealInPlace(util::ByteSpan nonce, util::ByteSpan aad,
                         uint8_t* buf, size_t plaintext_len) const {
  MVTEE_CHECK(nonce.size() == kGcmNonceSize);
  const GcmTier tier = SelectedGcmTier();
  uint8_t j0[16];
  MakeJ0(nonce, j0);

  // CTR encryption is an elementwise XOR with the keystream, so writing
  // the ciphertext over the plaintext it came from is well-defined.
  CtrCrypt(tier, j0, buf, buf, plaintext_len);
  ComputeTag(tier, j0, aad, util::ByteSpan(buf, plaintext_len),
             buf + plaintext_len);
}

util::Result<size_t> AesGcm::OpenInPlace(util::ByteSpan nonce,
                                         util::ByteSpan aad, uint8_t* buf,
                                         size_t len) const {
  if (nonce.size() != kGcmNonceSize) {
    return util::InvalidArgument("GCM nonce must be 12 bytes");
  }
  if (len < kGcmTagSize) {
    return util::AuthenticationFailure("ciphertext shorter than tag");
  }
  const GcmTier tier = SelectedGcmTier();
  const size_t ct_len = len - kGcmTagSize;
  uint8_t j0[16];
  MakeJ0(nonce, j0);

  uint8_t expected_tag[16];
  ComputeTag(tier, j0, aad, util::ByteSpan(buf, ct_len), expected_tag);
  if (!util::ConstantTimeEqual(util::ByteSpan(expected_tag, 16),
                               util::ByteSpan(buf + ct_len, kGcmTagSize))) {
    return util::AuthenticationFailure("GCM tag mismatch");
  }
  CtrCrypt(tier, j0, buf, buf, ct_len);
  return ct_len;
}

util::Bytes AesGcm::Seal(util::ByteSpan nonce, util::ByteSpan aad,
                         util::ByteSpan plaintext) const {
  util::Bytes out(plaintext.size() + kGcmTagSize);
  if (!plaintext.empty()) {
    std::memcpy(out.data(), plaintext.data(), plaintext.size());
  }
  util::CountDataPlaneCopy(plaintext.size());
  SealInPlace(nonce, aad, out.data(), plaintext.size());
  return out;
}

util::Result<util::Bytes> AesGcm::Open(
    util::ByteSpan nonce, util::ByteSpan aad,
    util::ByteSpan ciphertext_with_tag) const {
  util::Bytes work(ciphertext_with_tag.begin(), ciphertext_with_tag.end());
  util::CountDataPlaneCopy(work.size());
  auto pt_len = OpenInPlace(nonce, aad, work.data(), work.size());
  if (!pt_len.ok()) return pt_len.status();
  work.resize(*pt_len);
  return work;
}

}  // namespace mvtee::crypto
