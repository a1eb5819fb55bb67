#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/gcm_tiers.h"
#include "crypto/hmac.h"
#include "crypto/rand.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "util/bytes.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace mvtee::crypto {
namespace {

using util::Bytes;
using util::ByteSpan;
using util::HexDecode;
using util::HexEncode;

Bytes FromHex(std::string_view hex) {
  Bytes out;
  EXPECT_TRUE(HexDecode(hex, out));
  return out;
}

std::string DigestHex(const Sha256Digest& d) {
  return HexEncode(ByteSpan(d.data(), d.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  auto msg = util::ToBytes("abc");
  EXPECT_EQ(DigestHex(Sha256::Hash(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  auto msg = util::ToBytes(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(DigestHex(Sha256::Hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg;
  for (int i = 0; i < 300; ++i) msg.push_back(static_cast<uint8_t>(i * 7));
  // Feed in irregular chunk sizes to exercise buffering.
  Sha256 h;
  size_t pos = 0;
  for (size_t chunk : {1u, 3u, 63u, 64u, 65u, 100u, 4u}) {
    size_t take = std::min(chunk, msg.size() - pos);
    h.Update(ByteSpan(msg.data() + pos, take));
    pos += take;
  }
  h.Update(ByteSpan(msg.data() + pos, msg.size() - pos));
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg));
}

// -------------------------------------------------------------- HMAC/HKDF

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = HmacSha256(key, util::ToBytes("Hi There"));
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  auto mac = HmacSha256(util::ToBytes("Jefe"),
                        util::ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = HmacSha256(key, data);
  EXPECT_EQ(DigestHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashed) {
  Bytes key(131, 0xaa);  // RFC 4231 case 6
  auto mac = HmacSha256(
      key, util::ToBytes("Test Using Larger Than Block-Size Key - Hash "
                         "Key First"));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = FromHex("000102030405060708090a0b0c");
  Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  auto okm = Hkdf(salt, ikm, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3NoSaltNoInfo) {
  Bytes ikm(22, 0x0b);
  auto okm = Hkdf({}, ikm, {}, 42);
  EXPECT_EQ(HexEncode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, ExpandLengths) {
  Bytes prk(32, 0x42);
  for (size_t len : {1u, 16u, 31u, 32u, 33u, 64u, 100u, 255u}) {
    auto okm = HkdfExpand(prk, util::ToBytes("info"), len);
    EXPECT_EQ(okm.size(), len);
  }
  // Prefix property: a longer expansion extends a shorter one.
  auto short_okm = HkdfExpand(prk, util::ToBytes("ctx"), 16);
  auto long_okm = HkdfExpand(prk, util::ToBytes("ctx"), 48);
  EXPECT_TRUE(std::equal(short_okm.begin(), short_okm.end(),
                         long_okm.begin()));
}

// -------------------------------------------------------------------- AES

TEST(AesTest, Fips197Aes128) {
  auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  auto pt = FromHex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256) {
  auto key =
      FromHex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto pt = FromHex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, Aes256EcbNistVector) {
  // NIST AESAVS: key = 256-bit zero... use SP 800-38A F.1.5 vector instead.
  auto key =
      FromHex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  auto pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)),
            "f3eed1bdb5d2a03c064b5a7e3db181f8");
}

// -------------------------------------------------------------- AES-GCM

TEST(GcmTest, NistTestCase1EmptyAes128) {
  // GCM spec test case 1: K=0^128, IV=0^96, empty PT/AAD.
  Bytes key(16, 0);
  Bytes nonce(12, 0);
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, {});
  EXPECT_EQ(HexEncode(sealed), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, NistTestCase2SingleBlockAes128) {
  Bytes key(16, 0);
  Bytes nonce(12, 0);
  Bytes pt(16, 0);
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, pt);
  EXPECT_EQ(HexEncode(sealed),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(GcmTest, NistTestCase4WithAadAes128) {
  auto key = FromHex("feffe9928665731c6d6a8f9467308308");
  auto nonce = FromHex("cafebabefacedbaddecaf888");
  auto pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  auto aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, aad, pt);
  EXPECT_EQ(HexEncode(sealed),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(GcmTest, NistTestCase13EmptyAes256) {
  Bytes key(32, 0);
  Bytes nonce(12, 0);
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, {});
  EXPECT_EQ(HexEncode(sealed), "530f8afbc74536b9a963b4f1c4cb738b");
}

TEST(GcmTest, NistTestCase16Aes256) {
  auto key = FromHex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  auto nonce = FromHex("cafebabefacedbaddecaf888");
  auto pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  auto aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, aad, pt);
  EXPECT_EQ(HexEncode(sealed),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b");
}

TEST(GcmTest, SealOpenRoundTrip) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0x22);
  auto pt = util::ToBytes("the quick brown fox jumps over the lazy dog");
  auto aad = util::ToBytes("header");
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, aad, pt);
  auto opened = gcm.Open(nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, TamperedCiphertextRejected) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0x22);
  auto pt = util::ToBytes("sensitive tensor bytes");
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, pt);

  for (size_t i : {size_t{0}, sealed.size() / 2, sealed.size() - 1}) {
    auto corrupt = sealed;
    corrupt[i] ^= 0x01;
    auto r = gcm.Open(nonce, {}, corrupt);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kAuthenticationFailure);
  }
}

TEST(GcmTest, WrongAadRejected) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0x22);
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, util::ToBytes("aad1"), util::ToBytes("data"));
  EXPECT_FALSE(gcm.Open(nonce, util::ToBytes("aad2"), sealed).ok());
}

TEST(GcmTest, WrongNonceRejected) {
  Bytes key(32, 0x11);
  AesGcm gcm(key);
  Bytes nonce1(12, 1), nonce2(12, 2);
  auto sealed = gcm.Seal(nonce1, {}, util::ToBytes("data"));
  EXPECT_FALSE(gcm.Open(nonce2, {}, sealed).ok());
}

TEST(GcmTest, WrongKeyRejected) {
  Bytes key1(32, 0x11), key2(32, 0x12);
  Bytes nonce(12, 0);
  auto sealed = AesGcm(key1).Seal(nonce, {}, util::ToBytes("data"));
  EXPECT_FALSE(AesGcm(key2).Open(nonce, {}, sealed).ok());
}

TEST(GcmTest, TruncatedInputRejectedGracefully) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0);
  AesGcm gcm(key);
  Bytes too_short(10, 0);
  auto r = gcm.Open(nonce, {}, too_short);
  EXPECT_FALSE(r.ok());
}

TEST(GcmTest, LargePayloadRoundTrip) {
  Bytes key(32, 0x33);
  Bytes nonce(12, 0x44);
  Bytes pt(1 << 16);
  for (size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<uint8_t>(i * 31);
  AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, pt);
  auto opened = gcm.Open(nonce, {}, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, InPlaceSealMatchesCopyingSeal) {
  Bytes key(32, 0x55);
  Bytes nonce(12, 0x66);
  auto aad = util::ToBytes("record header");
  AesGcm gcm(key);
  for (size_t len : {size_t{0}, size_t{1}, size_t{16}, size_t{4097}}) {
    Bytes pt(len);
    for (size_t i = 0; i < len; ++i) pt[i] = static_cast<uint8_t>(i * 7 + 3);
    const Bytes sealed = gcm.Seal(nonce, aad, pt);

    Bytes buf = pt;
    buf.resize(len + kGcmTagSize);
    gcm.SealInPlace(nonce, aad, buf.data(), len);
    EXPECT_EQ(buf, sealed) << len;

    // In-place open restores the plaintext prefix.
    auto n = gcm.OpenInPlace(nonce, aad, buf.data(), buf.size());
    ASSERT_TRUE(n.ok()) << len;
    EXPECT_EQ(*n, len);
    EXPECT_TRUE(std::equal(pt.begin(), pt.end(), buf.begin()));
  }
}

// ------------------------------------------------- GCM SIMD dispatch
//
// AES-GCM must be a single cipher at every speed: whichever tier the
// dispatcher picks, the ciphertext and tag are bitwise identical. These
// run in one process and flip the default dispatch with
// ScopedForceScalar; CI additionally reruns the whole suite under
// MVTEE_SIMD=0 so the portable path is exercised as the default on its
// own leg. The tier suites below pin each tier explicitly.

TEST(GcmDispatchTest, NistKatsPassOnForcedScalarPath) {
  util::ScopedForceScalar force_scalar;
  ASSERT_FALSE(AesGcmAccelerated());
  // GCM spec test case 4 (AES-128, AAD, partial final block).
  {
    AesGcm gcm(FromHex("feffe9928665731c6d6a8f9467308308"));
    auto sealed = gcm.Seal(
        FromHex("cafebabefacedbaddecaf888"),
        FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2"),
        FromHex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"));
    EXPECT_EQ(HexEncode(sealed),
              "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
              "5bc94fbc3221a5db94fae95ae7121a47");
  }
  // GCM spec test case 16 (AES-256).
  {
    AesGcm gcm(FromHex(
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"));
    auto sealed = gcm.Seal(
        FromHex("cafebabefacedbaddecaf888"),
        FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2"),
        FromHex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"));
    EXPECT_EQ(HexEncode(sealed),
              "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
              "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
              "76fc6ece0f4e1768cddf8853bb2d551b");
  }
}

TEST(GcmDispatchTest, SealBitwiseIdenticalAcrossPaths) {
  Bytes key(32, 0x7a);
  Bytes nonce(12, 0x1b);
  AesGcm gcm(key);
  // Lengths probing every CTR/GHASH code path: empty, AAD-only, sub-
  // block, exact block multiples (the 8-block pipelined main loop and
  // its single-block remainder), and ragged tails.
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0},    {0, 20},   {1, 0},    {15, 7},  {16, 0},   {16, 16},
      {17, 3},   {32, 0},   {33, 13},  {112, 0}, {128, 24}, {129, 5},
      {4096, 20} };
  for (const auto& [pt_len, aad_len] : shapes) {
    Bytes pt(pt_len), aad(aad_len);
    for (size_t i = 0; i < pt_len; ++i) pt[i] = static_cast<uint8_t>(i * 13);
    for (size_t i = 0; i < aad_len; ++i) aad[i] = static_cast<uint8_t>(i + 5);

    const Bytes fast = gcm.Seal(nonce, aad, pt);
    Bytes scalar;
    {
      util::ScopedForceScalar force_scalar;
      ASSERT_FALSE(AesGcmAccelerated());
      scalar = gcm.Seal(nonce, aad, pt);
    }
    ASSERT_EQ(HexEncode(fast), HexEncode(scalar))
        << "pt=" << pt_len << " aad=" << aad_len;

    // Cross-path open: bytes sealed on one path authenticate on the
    // other (what actually happens when peers run different silicon).
    {
      util::ScopedForceScalar force_scalar;
      auto opened = gcm.Open(nonce, aad, fast);
      ASSERT_TRUE(opened.ok()) << "pt=" << pt_len;
      EXPECT_EQ(*opened, pt);
    }
    auto opened = gcm.Open(nonce, aad, scalar);
    ASSERT_TRUE(opened.ok()) << "pt=" << pt_len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(GcmDispatchTest, InPlacePathsMatchAcrossDispatch) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x99);
  auto aad = util::ToBytes("frame header");
  AesGcm gcm(key);
  for (size_t len : {size_t{0}, size_t{16}, size_t{129}, size_t{4097}}) {
    Bytes pt(len);
    for (size_t i = 0; i < len; ++i) pt[i] = static_cast<uint8_t>(i * 31 + 1);

    Bytes fast = pt;
    fast.resize(len + kGcmTagSize);
    gcm.SealInPlace(nonce, aad, fast.data(), len);

    Bytes scalar = pt;
    scalar.resize(len + kGcmTagSize);
    {
      util::ScopedForceScalar force_scalar;
      gcm.SealInPlace(nonce, aad, scalar.data(), len);
    }
    ASSERT_EQ(fast, scalar) << len;

    // Open each buffer on the opposite path it was sealed on.
    {
      util::ScopedForceScalar force_scalar;
      auto n = gcm.OpenInPlace(nonce, aad, fast.data(), fast.size());
      ASSERT_TRUE(n.ok()) << len;
      EXPECT_EQ(*n, len);
    }
    auto n = gcm.OpenInPlace(nonce, aad, scalar.data(), scalar.size());
    ASSERT_TRUE(n.ok()) << len;
    EXPECT_EQ(*n, len);
    EXPECT_TRUE(std::equal(pt.begin(), pt.end(), scalar.begin())) << len;
  }
}

TEST(GcmTest, InPlaceOpenRejectsExactlyLikeOpen) {
  Bytes key(32, 0x55);
  Bytes nonce(12, 0x66);
  auto aad = util::ToBytes("seq||header");
  auto pt = util::ToBytes("tensor payload bytes for parity checking");
  AesGcm gcm(key);
  const Bytes sealed = gcm.Seal(nonce, aad, pt);

  // Bit flips anywhere (ciphertext or tag) fail both entry points with
  // the same taxonomy, and the in-place buffer stays untouched.
  for (size_t i : {size_t{0}, sealed.size() / 2, sealed.size() - 1}) {
    Bytes corrupt = sealed;
    corrupt[i] ^= 0x01;
    const Bytes before = corrupt;
    auto copy_r = gcm.Open(nonce, aad, corrupt);
    auto r = gcm.OpenInPlace(nonce, aad, corrupt.data(), corrupt.size());
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(copy_r.ok());
    EXPECT_EQ(r.status().code(), copy_r.status().code());
    EXPECT_EQ(r.status().code(), util::StatusCode::kAuthenticationFailure);
    EXPECT_EQ(corrupt, before) << "failed open must not decrypt in place";
  }

  // AAD tampering parity.
  Bytes sealed2 = sealed;
  EXPECT_FALSE(gcm.Open(nonce, util::ToBytes("other"), sealed2).ok());
  EXPECT_FALSE(gcm.OpenInPlace(nonce, util::ToBytes("other"), sealed2.data(),
                               sealed2.size())
                   .ok());

  // Truncation parity (shorter than a tag, and truncated ciphertext).
  for (size_t keep : {size_t{0}, kGcmTagSize - 1, sealed.size() - 1}) {
    Bytes cut(sealed.begin(), sealed.begin() + static_cast<long>(keep));
    EXPECT_FALSE(gcm.Open(nonce, aad, cut).ok());
    EXPECT_FALSE(gcm.OpenInPlace(nonce, aad, cut.data(), cut.size()).ok());
  }
}

// ------------------------------------------------- GCM implementation tiers
//
// Each case pins its tier with ScopedGcmTier, which overrides
// MVTEE_SIMD, so every tier the host supports runs in every CI leg. The
// portable tier is the reference the vector tiers must match byte for
// byte.

std::string MissingCpuBits(GcmTier tier) {
  const util::CpuFeatures& f = util::HostCpuFeatures();
  std::string missing;
  auto need = [&](bool has, const char* bit) {
    if (!has) missing += std::string(missing.empty() ? "" : " ") + bit;
  };
  need(f.aes, "aes");
  need(f.pclmul, "pclmul");
  need(f.ssse3, "ssse3");
  if (tier == GcmTier::kVaes512) {
    need(f.avx512f, "avx512f");
    need(f.avx512bw, "avx512bw");
    need(f.vaes, "vaes");
    need(f.vpclmulqdq, "vpclmulqdq");
  }
  return missing.empty() ? "not compiled into this build"
                         : "CPUID lacks " + missing;
}

class GcmTierTest : public ::testing::TestWithParam<GcmTier> {
 protected:
  void SetUp() override {
    if (!GcmTierSupported(GetParam())) {
      GTEST_SKIP() << GcmTierName(GetParam()) << ": "
                   << MissingCpuBits(GetParam());
    }
  }
};

// The vector tiers, checked against the portable one.
class GcmVectorTierTest : public GcmTierTest {};

std::string TierParamName(const ::testing::TestParamInfo<GcmTier>& info) {
  return GcmTierName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, GcmTierTest,
                         ::testing::Values(GcmTier::kPortable,
                                           GcmTier::kAesNi,
                                           GcmTier::kVaes512),
                         TierParamName);
INSTANTIATE_TEST_SUITE_P(VectorTiers, GcmVectorTierTest,
                         ::testing::Values(GcmTier::kAesNi, GcmTier::kVaes512),
                         TierParamName);

Bytes RandomBytes(util::Rng& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

TEST_P(GcmTierTest, NistKats) {
  // GCM spec test cases 1-4 (AES-128) and 13-16 (AES-256): empty input,
  // one zero block, 64 bytes with no AAD, and a partial last block with
  // 20 bytes of AAD.
  struct Kat {
    const char* key;
    const char* nonce;
    const char* aad;
    const char* pt;
    const char* sealed;
  };
  const std::string k128 = "feffe9928665731c6d6a8f9467308308";
  const std::string k256 = k128 + k128;
  const char* iv = "cafebabefacedbaddecaf888";
  const char* aad = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
  const std::string pt64 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
  const std::string pt60 = pt64.substr(0, 120);
  const std::string zeros16(32, '0'), zeros32(64, '0'), zeros12(24, '0');
  const Kat kats[] = {
      {zeros16.c_str(), zeros12.c_str(), "", "",
       "58e2fccefa7e3061367f1d57a4e7455a"},
      {zeros16.c_str(), zeros12.c_str(), "", zeros16.c_str(),
       "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"},
      {k128.c_str(), iv, "", pt64.c_str(),
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {k128.c_str(), iv, aad, pt60.c_str(),
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
       "5bc94fbc3221a5db94fae95ae7121a47"},
      {zeros32.c_str(), zeros12.c_str(), "", "",
       "530f8afbc74536b9a963b4f1c4cb738b"},
      {zeros32.c_str(), zeros12.c_str(), "", zeros16.c_str(),
       "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"},
      {k256.c_str(), iv, "", pt64.c_str(),
       "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
       "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
       "b094dac5d93471bdec1a502270e3cc6c"},
      {k256.c_str(), iv, aad, pt60.c_str(),
       "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
       "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
       "76fc6ece0f4e1768cddf8853bb2d551b"},
  };
  ScopedGcmTier pin(GetParam());
  for (const Kat& kat : kats) {
    SCOPED_TRACE(kat.sealed);
    AesGcm gcm(FromHex(kat.key));
    const Bytes nonce = FromHex(kat.nonce);
    const Bytes aad_bytes = FromHex(kat.aad);
    const Bytes pt = FromHex(kat.pt);
    const Bytes sealed = gcm.Seal(nonce, aad_bytes, pt);
    EXPECT_EQ(HexEncode(sealed), kat.sealed);

    Bytes buf = pt;
    buf.resize(pt.size() + kGcmTagSize);
    gcm.SealInPlace(nonce, aad_bytes, buf.data(), pt.size());
    EXPECT_EQ(HexEncode(buf), kat.sealed);

    auto opened = gcm.Open(nonce, aad_bytes, FromHex(kat.sealed));
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, pt);
  }
}

TEST_P(GcmVectorTierTest, SealOpenMatchPortableByteForByte) {
  // Every length 0-300, each vector group boundary +-1 (16 B blocks,
  // 64 B wide lanes, 128 B AES-NI groups, 256 B GHASH reductions, 512 B
  // wide CTR steps), and 200 random lengths up to 64 KiB. AAD lengths
  // cycle through values that are mostly not multiples of 16.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (size_t g : {512u, 1024u, 4096u}) {
    for (size_t n : {g - 1, g, g + 1}) lengths.push_back(n);
  }
  const size_t fixed = lengths.size();
  util::Rng rng(0x6c3);
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(rng.NextU64() % (64 * 1024 + 1));
  }
  const size_t aad_lens[] = {0, 1, 12, 13, 15, 17, 20, 31, 33, 64, 255, 257};
  const AesGcm gcm128(RandomBytes(rng, 16));
  const AesGcm gcm256(RandomBytes(rng, 32));

  for (size_t i = 0; i < lengths.size(); ++i) {
    const size_t len = lengths[i];
    const size_t aad_len = aad_lens[i % std::size(aad_lens)];
    const Bytes pt = RandomBytes(rng, len);
    const Bytes aad = RandomBytes(rng, aad_len);
    const Bytes nonce = RandomBytes(rng, kGcmNonceSize);
    // Both key sizes for the fixed lengths; alternate on random ones.
    for (int key_bits : {128, 256}) {
      if (i >= fixed && (key_bits == 128) != (i % 2 == 0)) continue;
      SCOPED_TRACE("len=" + std::to_string(len) + " aad=" +
                   std::to_string(aad_len) + " key=" +
                   std::to_string(key_bits));
      const AesGcm& gcm = key_bits == 128 ? gcm128 : gcm256;
      Bytes ref;
      {
        ScopedGcmTier portable(GcmTier::kPortable);
        ref = gcm.Seal(nonce, aad, pt);
      }
      ScopedGcmTier pin(GetParam());
      ASSERT_TRUE(gcm.Seal(nonce, aad, pt) == ref);

      Bytes buf = pt;
      buf.resize(len + kGcmTagSize);
      gcm.SealInPlace(nonce, aad, buf.data(), len);
      ASSERT_TRUE(buf == ref);

      auto opened = gcm.Open(nonce, aad, ref);
      ASSERT_TRUE(opened.ok());
      ASSERT_TRUE(*opened == pt);
      auto n = gcm.OpenInPlace(nonce, aad, buf.data(), buf.size());
      ASSERT_TRUE(n.ok());
      ASSERT_EQ(*n, len);
      ASSERT_TRUE(std::equal(pt.begin(), pt.end(), buf.begin()));
    }
  }
}

TEST_P(GcmTierTest, TamperingIsRejected) {
  util::Rng rng(0x7a3);
  const AesGcm gcm(RandomBytes(rng, 32));
  const Bytes nonce = RandomBytes(rng, kGcmNonceSize);
  const Bytes aad = RandomBytes(rng, 21);
  const Bytes pt = RandomBytes(rng, 1000);
  ScopedGcmTier pin(GetParam());
  const Bytes sealed = gcm.Seal(nonce, aad, pt);

  // A bit flip in the first, middle or last ciphertext byte, or in the
  // tag, fails both open entry points; the in-place one leaves the
  // buffer untouched.
  for (size_t i : {size_t{0}, pt.size() / 2, pt.size() - 1, pt.size(),
                   sealed.size() - 1}) {
    Bytes corrupt = sealed;
    corrupt[i] ^= 0x80;
    const Bytes before = corrupt;
    auto r = gcm.Open(nonce, aad, corrupt);
    ASSERT_FALSE(r.ok()) << i;
    EXPECT_EQ(r.status().code(), util::StatusCode::kAuthenticationFailure);
    auto n = gcm.OpenInPlace(nonce, aad, corrupt.data(), corrupt.size());
    ASSERT_FALSE(n.ok()) << i;
    EXPECT_EQ(corrupt, before) << i;
  }
  Bytes bad_aad = aad;
  bad_aad[20] ^= 1;
  EXPECT_FALSE(gcm.Open(nonce, bad_aad, sealed).ok());
  Bytes bad_nonce = nonce;
  bad_nonce[11] ^= 1;
  EXPECT_FALSE(gcm.Open(bad_nonce, aad, sealed).ok());
  const Bytes cut(sealed.begin(), sealed.end() - 1);
  EXPECT_FALSE(gcm.Open(nonce, aad, cut).ok());
}

// Round keys for a direct CtrXor call (the H powers are Tag's only).
gcm::VectorKey CtrKeyOf(const Aes& aes) {
  gcm::VectorKey key{};
  key.rounds = aes.rounds();
  const uint32_t* w = aes.round_key_words();
  for (int r = 0; r <= key.rounds; ++r) {
    for (int b = 0; b < 16; ++b) {
      key.round_keys[r][b] =
          static_cast<uint8_t>(w[4 * r + b / 4] >> (24 - 8 * (b % 4)));
    }
  }
  return key;
}

TEST_P(GcmVectorTierTest, CounterWrapsInsideAGroupWithoutCarry) {
  // AesGcm always starts the counter at 1; calling the tier's CtrXor
  // directly lets the low 32 bits start near 2^32, so inc32 wraps to 0
  // inside a vector group. The nonce bytes must never see the carry.
  util::Rng rng(0x3f1);
  const Aes aes(RandomBytes(rng, 32));
  const gcm::VectorKey key = CtrKeyOf(aes);
  auto ctr_xor = GetParam() == GcmTier::kVaes512 ? &gcm::vaes512::CtrXor
                                                 : &gcm::aesni::CtrXor;
  for (uint32_t start : {0xfffffff0u, 0xfffffffdu, 0xffffffffu}) {
    uint8_t j0[16];
    const Bytes nonce = RandomBytes(rng, 12);
    std::copy(nonce.begin(), nonce.end(), j0);
    for (int i = 0; i < 4; ++i) {
      j0[12 + i] = static_cast<uint8_t>(start >> (24 - 8 * i));
    }
    for (size_t len : {size_t{1}, size_t{64}, size_t{640}, size_t{1000},
                       size_t{2053}}) {
      const Bytes in = RandomBytes(rng, len);
      Bytes expected(len);
      uint8_t counter[16];
      std::copy(j0, j0 + 16, counter);
      uint32_t low = start;
      for (size_t off = 0; off < len; off += 16) {
        ++low;  // wraps mod 2^32
        for (int i = 0; i < 4; ++i) {
          counter[12 + i] = static_cast<uint8_t>(low >> (24 - 8 * i));
        }
        uint8_t ks[16];
        aes.EncryptBlock(counter, ks);
        for (size_t k = 0; k < 16 && off + k < len; ++k) {
          expected[off + k] = in[off + k] ^ ks[k];
        }
      }
      Bytes out(len);
      ctr_xor(key, j0, in.data(), out.data(), len);
      EXPECT_EQ(HexEncode(out), HexEncode(expected))
          << "start=" << start << " len=" << len;
      // In place gives the same bytes.
      Bytes inplace = in;
      ctr_xor(key, j0, inplace.data(), inplace.data(), len);
      EXPECT_EQ(inplace, expected) << "start=" << start << " len=" << len;
    }
  }
}

// ----------------------------------------------------------------- X25519

TEST(X25519Test, Rfc7748Vector1) {
  X25519Key scalar, point;
  Bytes s = FromHex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  Bytes u = FromHex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  auto out = X25519(scalar, point);
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748Vector2) {
  X25519Key scalar, point;
  Bytes s = FromHex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  Bytes u = FromHex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  auto out = X25519(scalar, point);
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), out.size())),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519Test, DiffieHellmanAgreement) {
  // RFC 7748 §6.1 test keys.
  X25519Key alice_priv, bob_priv;
  Bytes a = FromHex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  Bytes b = FromHex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  std::copy(a.begin(), a.end(), alice_priv.begin());
  std::copy(b.begin(), b.end(), bob_priv.begin());

  auto alice_pub = X25519PublicKey(alice_priv);
  auto bob_pub = X25519PublicKey(bob_priv);
  EXPECT_EQ(HexEncode(ByteSpan(alice_pub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(HexEncode(ByteSpan(bob_pub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  auto shared_a = X25519(alice_priv, bob_pub);
  auto shared_b = X25519(bob_priv, alice_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(HexEncode(ByteSpan(shared_a.data(), 32)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519Test, IteratedRfc7748) {
  // RFC 7748 §5.2: after 1 iteration of k = X25519(k, u); u = old k.
  X25519Key k{}, u{};
  k[0] = 9;
  u[0] = 9;
  auto result = X25519(k, u);
  EXPECT_EQ(HexEncode(ByteSpan(result.data(), 32)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

// ------------------------------------------------------------------ rand

TEST(RandTest, DeterministicIsReproducible) {
  DeterministicRandom a(99), b(99);
  auto x = a.Generate(64);
  auto y = b.Generate(64);
  EXPECT_EQ(x, y);
}

TEST(RandTest, DeterministicDiffersBySeed) {
  DeterministicRandom a(1), b(2);
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(RandTest, SequentialCallsDiffer) {
  DeterministicRandom a(7);
  EXPECT_NE(a.Generate(32), a.Generate(32));
}

TEST(RandTest, SecureRandomProducesNonConstantOutput) {
  SecureRandom sr;
  auto x = sr.Generate(32);
  auto y = sr.Generate(32);
  EXPECT_NE(x, y);
}

}  // namespace
}  // namespace mvtee::crypto
