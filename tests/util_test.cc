#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/cpu_features.h"
#include "util/knobs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mvtee::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_NE(s.ToString().find("INVALID_ARGUMENT"), std::string::npos);
}

TEST(StatusTest, SecuritySpecificCodes) {
  EXPECT_EQ(AuthenticationFailure("x").code(),
            StatusCode::kAuthenticationFailure);
  EXPECT_EQ(AttestationFailure("x").code(), StatusCode::kAttestationFailure);
  EXPECT_EQ(ReplayDetected("x").code(), StatusCode::kReplayDetected);
  EXPECT_EQ(DivergenceDetected("x").code(), StatusCode::kDivergenceDetected);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

Status HelperReturnsError() { return DataLoss("oops"); }

Status UsesReturnIfError() {
  MVTEE_RETURN_IF_ERROR(HelperReturnsError());
  return OkStatus();
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kDataLoss);
}

Result<int> MakeValue(bool fail) {
  if (fail) return Internal("nope");
  return 5;
}

Status UsesAssignOrReturn(bool fail, int& out) {
  MVTEE_ASSIGN_OR_RETURN(int v, MakeValue(fail));
  out = v;
  return OkStatus();
}

TEST(StatusMacroTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(false, out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UsesAssignOrReturn(true, out).code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformU64(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalHasPlausibleMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, SampleIndexByWeightRespectsZeros) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 1.0, 0.0, 3.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 10000; ++i) counts[rng.SampleIndexByWeight(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[3], counts[1]);  // 3:1 weight ratio
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7e};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff7e");
  Bytes back;
  ASSERT_TRUE(HexDecode(hex, back));
  EXPECT_EQ(back, data);
}

TEST(BytesTest, HexDecodeRejectsMalformed) {
  Bytes out;
  EXPECT_FALSE(HexDecode("abc", out));   // odd length
  EXPECT_FALSE(HexDecode("zz", out));    // non-hex
  EXPECT_TRUE(HexDecode("", out));
  EXPECT_TRUE(out.empty());
}

TEST(BytesTest, AppendAndReadRoundTrip) {
  Bytes buf;
  AppendU8(buf, 0x12);
  AppendU16(buf, 0x3456);
  AppendU32(buf, 0x789abcde);
  AppendU64(buf, 0x0123456789abcdefULL);
  AppendF32(buf, 3.5f);
  AppendLengthPrefixedStr(buf, "hello");

  ByteReader reader(buf);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  float f;
  std::string s;
  ASSERT_TRUE(reader.ReadU8(u8));
  ASSERT_TRUE(reader.ReadU16(u16));
  ASSERT_TRUE(reader.ReadU32(u32));
  ASSERT_TRUE(reader.ReadU64(u64));
  ASSERT_TRUE(reader.ReadF32(f));
  ASSERT_TRUE(reader.ReadLengthPrefixedStr(s));
  EXPECT_EQ(u8, 0x12);
  EXPECT_EQ(u16, 0x3456);
  EXPECT_EQ(u32, 0x789abcdeu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(f, 3.5f);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(reader.done());
}

TEST(BytesTest, ReaderUnderflowIsSafe) {
  Bytes buf = {1, 2};
  ByteReader reader(buf);
  uint32_t v = 0xdead;
  EXPECT_FALSE(reader.ReadU32(v));
  EXPECT_EQ(v, 0xdeadu);  // untouched
  uint16_t v16;
  EXPECT_TRUE(reader.ReadU16(v16));
  EXPECT_TRUE(reader.done());
}

TEST(BytesTest, LengthPrefixTruncationRejected) {
  Bytes buf;
  AppendU32(buf, 100);  // claims 100 bytes, provides 2
  buf.push_back(1);
  buf.push_back(2);
  ByteReader reader(buf);
  Bytes out;
  EXPECT_FALSE(reader.ReadLengthPrefixed(out));
  // Position restored so caller can handle the error.
  EXPECT_EQ(reader.position(), 0u);
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3}, b = {1, 2, 3}, c = {1, 2, 4}, d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(BytesTest, ReadSpanAliasesWithoutCopy) {
  Bytes buf = {1, 2, 3, 4, 5};
  ByteReader reader(buf);
  ByteSpan head, tail;
  ASSERT_TRUE(reader.ReadSpan(2, head));
  ASSERT_TRUE(reader.ReadSpan(3, tail));
  EXPECT_EQ(head.data(), buf.data());
  EXPECT_EQ(tail.data(), buf.data() + 2);
  EXPECT_TRUE(reader.done());
  EXPECT_FALSE(reader.ReadSpan(1, head));
}

TEST(BufferPoolTest, RoundUpToClassAndRecycle) {
  BufferPool pool(1 << 20);
  PooledBuffer b = pool.Acquire(700);
  EXPECT_EQ(b.size(), 700u);
  EXPECT_GE(b.bytes().capacity(), 1024u);  // next power-of-two class
  const uint8_t* storage = b.data();
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.bytes_in_use, 1024u);
  b.reset();  // released back to the pool
  s = pool.stats();
  EXPECT_EQ(s.bytes_in_use, 0u);
  EXPECT_EQ(s.retained_bytes, 1024u);
  // Any size in the same class reuses the retained storage.
  PooledBuffer c = pool.Acquire(1000);
  EXPECT_EQ(c.data(), storage);
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.retained_bytes, 0u);
}

TEST(BufferPoolTest, SizeClassAccountingIsExact) {
  BufferPool pool(1 << 30);
  // Sub-minimum, mid-class, exact-class and oversize requests.
  const size_t sizes[] = {1, 700, 4096, (1u << 26) + 1};
  const size_t charged[] = {512, 1024, 4096, (1u << 26) + 1};
  std::vector<PooledBuffer> held;
  size_t expect_in_use = 0;
  for (size_t i = 0; i < 4; ++i) {
    held.push_back(pool.Acquire(sizes[i]));
    expect_in_use += charged[i];
    EXPECT_EQ(pool.stats().bytes_in_use, expect_in_use) << sizes[i];
  }
  EXPECT_EQ(pool.stats().bytes_in_use_hwm, expect_in_use);
  held.clear();
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.bytes_in_use, 0u);
  // Oversize buffers are never retained.
  EXPECT_EQ(s.retained_bytes, 512u + 1024u + 4096u);
  EXPECT_EQ(s.bytes_in_use_hwm, expect_in_use);  // high-water survives
  pool.Trim();
  EXPECT_EQ(pool.stats().retained_bytes, 0u);
}

TEST(BufferPoolTest, RetentionCapAndAdoptedBuffers) {
  BufferPool pool(0);  // retain nothing
  pool.Acquire(512).reset();
  EXPECT_EQ(pool.stats().retained_bytes, 0u);

  // Adopted buffers never touch pool accounting.
  Bytes plain = {9, 9, 9};
  PooledBuffer adopted = PooledBuffer::Adopt(std::move(plain));
  EXPECT_EQ(adopted.size(), 3u);
  EXPECT_TRUE(adopted.unique());
  Bytes back = adopted.TakeBytes();  // sole owner: moves, no copy
  EXPECT_EQ(back.size(), 3u);
}

TEST(BufferPoolTest, KeepaliveSharesStorage) {
  BufferPool pool(1 << 20);
  PooledBuffer b = pool.Acquire(100);
  std::shared_ptr<const void> pin = b.keepalive();
  b.reset();
  // The keepalive still pins the storage: not yet back in the pool.
  EXPECT_EQ(pool.stats().bytes_in_use, 512u);
  pin.reset();
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsConsistent) {
  BufferPool pool(4 << 20);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      Rng rng(0xb0f5eed + static_cast<uint64_t>(t));
      for (int i = 0; i < kIters; ++i) {
        const size_t n = 1 + rng.NextU64() % 8192;
        PooledBuffer b = pool.Acquire(n);
        ASSERT_EQ(b.size(), n);
        b.data()[0] = static_cast<uint8_t>(t);  // touch the storage
        b.data()[n - 1] = static_cast<uint8_t>(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.bytes_in_use, 0u);  // everything released
  EXPECT_GT(s.hits, 0u);          // recycling actually happened
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, BackToBackJobsReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 64u * 50);
}

TEST(ThreadPoolTest, EmptyAndSingleIndexJobs) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  size_t seen = 1234;
  pool.ParallelFor(1, [&](size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolTest, ResolveThreadCountUsesHardwareWhenUnset) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(nullptr, 16), 16u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(nullptr, 1), 1u);
}

TEST(ThreadPoolTest, ResolveThreadCountHonorsValidOverride) {
  // No silent cap: values above the old 8-thread ceiling stick.
  EXPECT_EQ(ThreadPool::ResolveThreadCount("12", 64), 12u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount("96", 8), 96u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount("1", 8), 1u);
}

TEST(CpuFeaturesTest, ScopedForceScalarDisablesEveryDispatchPredicate) {
  ScopedForceScalar force_scalar;
  EXPECT_FALSE(SimdEnabled());
  EXPECT_FALSE(UseAvx2Gemm());
  EXPECT_FALSE(UseAesGcmAccel());
}

TEST(CpuFeaturesTest, FeatureStringIsStableAndNonEmpty) {
  const std::string s = CpuFeatureString();
  EXPECT_FALSE(s.empty());  // at minimum "scalar"
  EXPECT_EQ(s, CpuFeatureString());
  const CpuFeatures& f = HostCpuFeatures();
  EXPECT_EQ(f.avx2, s.find("avx2") != std::string::npos);
  EXPECT_EQ(f.pclmul, s.find("pclmul") != std::string::npos);
  EXPECT_EQ(f.avx512bw, s.find("avx512bw") != std::string::npos);
  EXPECT_EQ(f.vaes, s.find("vaes") != std::string::npos);
  EXPECT_EQ(f.vpclmulqdq, s.find("vpclmulqdq") != std::string::npos);
}

TEST(ThreadPoolTest, ResolveThreadCountRejectsMalformedValues) {
  // Malformed or out-of-range values fall back to hardware concurrency
  // (with a warning) instead of being misparsed or treated as 0.
  for (const char* bad : {"", "abc", "4x", " 8", "8 ", "-2", "+4", "0x10",
                          "3.5", "0", "99999999999999999999", "5000"}) {
    EXPECT_EQ(ThreadPool::ResolveThreadCount(bad, 6), 6u) << "value: " << bad;
  }
}


// -------------------------------------------------------------- logging

TEST(LoggingTest, ResolveLogLevelStrictParsing) {
  const LogLevel fb = LogLevel::kWarning;
  EXPECT_EQ(ResolveLogLevel(nullptr, fb), fb);  // unset: silent default
  EXPECT_EQ(ResolveLogLevel("debug", fb), LogLevel::kDebug);
  EXPECT_EQ(ResolveLogLevel("info", fb), LogLevel::kInfo);
  EXPECT_EQ(ResolveLogLevel("warning", fb), LogLevel::kWarning);
  EXPECT_EQ(ResolveLogLevel("warn", fb), LogLevel::kWarning);
  EXPECT_EQ(ResolveLogLevel("error", fb), LogLevel::kError);
  // Wrong case, whitespace, abbreviations and junk all fall back.
  EXPECT_EQ(ResolveLogLevel("DEBUG", fb), fb);
  EXPECT_EQ(ResolveLogLevel("Info", fb), fb);
  EXPECT_EQ(ResolveLogLevel(" info", fb), fb);
  EXPECT_EQ(ResolveLogLevel("info ", fb), fb);
  EXPECT_EQ(ResolveLogLevel("inf", fb), fb);
  EXPECT_EQ(ResolveLogLevel("", fb), fb);
  EXPECT_EQ(ResolveLogLevel("2", fb), fb);
  EXPECT_EQ(ResolveLogLevel("verbose", LogLevel::kError), LogLevel::kError);
}

TEST(LoggingTest, SetLogLevelGatesEmission) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  MVTEE_WLOG << "should be dropped";
  MVTEE_ELOG << "should appear";
  const std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(captured.find("should be dropped"), std::string::npos);
  EXPECT_NE(captured.find("should appear"), std::string::npos);
  SetLogLevel(before);
}

uint64_t FakeTraceId() { return 424242; }
uint64_t NoTraceId() { return 0; }

TEST(LoggingTest, TraceIdProviderStampsLogLines) {
  SetLogTraceIdProvider(&FakeTraceId);
  ::testing::internal::CaptureStderr();
  MVTEE_WLOG << "with-context";
  std::string captured = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("t=424242"), std::string::npos) << captured;
  EXPECT_NE(captured.find("with-context"), std::string::npos);

  // A provider reporting no live context (0) omits the field entirely.
  SetLogTraceIdProvider(&NoTraceId);
  ::testing::internal::CaptureStderr();
  MVTEE_WLOG << "no-context";
  captured = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(captured.find("t="), std::string::npos) << captured;
  SetLogTraceIdProvider(nullptr);
}

// ---------------------------------------------------- strict knob parse

TEST(KnobRegistryTest, ResolveKnobStrictParsing) {
  auto resolve = [](const char* v) {
    return ResolveKnob("TEST_KNOB", v, 1, 60'000, 42);
  };
  EXPECT_EQ(resolve(nullptr), 42);  // unset: silent default
  EXPECT_EQ(resolve(""), 42);
  EXPECT_EQ(resolve("abc"), 42);
  EXPECT_EQ(resolve("-3"), 42);   // signs rejected
  EXPECT_EQ(resolve("+3"), 42);
  EXPECT_EQ(resolve(" 5"), 42);   // whitespace rejected
  EXPECT_EQ(resolve("4q"), 42);   // partial parse rejected
  EXPECT_EQ(resolve("3.5"), 42);
  EXPECT_EQ(resolve("0"), 42);    // below min
  EXPECT_EQ(resolve("60001"), 42);  // above max
  EXPECT_EQ(resolve("99999999999999999999999"), 42);  // overflow
  EXPECT_EQ(resolve("1"), 1);
  EXPECT_EQ(resolve("25"), 25);
  EXPECT_EQ(resolve("60000"), 60'000);
}

// ------------------------------------------------- kernel-layer knobs

TEST(KnobRegistryTest, SimdKnobRejectsGarbageStrictly) {
  // MVTEE_SIMD resolves through the strict knob table: anything but
  // "0"/"1" warns and falls back to the default (dispatch stays ON),
  // never silently parses to 0 and turns SIMD off.
  const KnobRegistry& knobs = KnobRegistry::Default();
  ASSERT_NE(knobs.Find("MVTEE_SIMD"), nullptr);
  EXPECT_EQ(knobs.IntFrom("MVTEE_SIMD", nullptr), 1);
  EXPECT_EQ(knobs.IntFrom("MVTEE_SIMD", "0"), 0);
  EXPECT_EQ(knobs.IntFrom("MVTEE_SIMD", "1"), 1);
  for (const char* bad : {"", "2", "-1", "yes", "true", "0x0", " 0", "01x"}) {
    EXPECT_EQ(knobs.IntFrom("MVTEE_SIMD", bad), 1) << "value: " << bad;
  }
}

TEST(KnobRegistryTest, PackCacheKnobRegisteredAndStrict) {
  const KnobRegistry& knobs = KnobRegistry::Default();
  const KnobDesc* d = knobs.Find("MVTEE_PACK_CACHE");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->def, 1);  // cache on by default
  EXPECT_EQ(knobs.IntFrom("MVTEE_PACK_CACHE", "0"), 0);
  for (const char* bad : {"", "2", "off", "-1"}) {
    EXPECT_EQ(knobs.IntFrom("MVTEE_PACK_CACHE", bad), 1) << "value: " << bad;
  }
}

TEST(CpuFeaturesTest, Avx512DetectedButUnusedIsSurfaced) {
  // AVX-512 runs the wide AES-GCM tier but no GEMM or elementwise
  // kernel yet (ROADMAP): detection must show up in the provenance
  // string so /status can report the GEMM headroom, and the AVX2
  // predicates must not key on it.
  const CpuFeatures& f = HostCpuFeatures();
  EXPECT_EQ(f.avx512f, CpuFeatureString().find("avx512f") != std::string::npos);
  if (!f.avx2 && f.avx512f) {
    // Hypothetical avx512-only host: the AVX2 tiers must stay off.
    EXPECT_FALSE(UseAvx2Gemm());
    EXPECT_FALSE(UseAvx2Elementwise());
  }
}

TEST(CpuFeaturesTest, ElementwiseDispatchFollowsSimdToggle) {
  // UseAvx2Elementwise needs only avx2 (no FMA: contraction would
  // break bitwise identity) and obeys the same kill switches as the
  // other predicates.
  EXPECT_EQ(UseAvx2Elementwise(), HostCpuFeatures().avx2 && SimdEnabled());
  ScopedForceScalar force_scalar;
  EXPECT_FALSE(UseAvx2Elementwise());
}

}  // namespace
}  // namespace mvtee::util
