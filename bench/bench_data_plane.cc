// Data-plane benchmark (DESIGN.md §10): the three pillars of the pooled
// zero-copy path, each against its legacy copying counterpart.
//
//   1. AEAD: allocating Seal/Open vs SealInPlace/OpenInPlace on the
//      same record sizes the secure channel moves (MB/s of plaintext).
//   2. Checkpoint round trip: a variant reporting an InferResultMsg of
//      checkpoint tensors over a real attested secure channel, legacy
//      Encode+Send+Recv+Decode vs single-pass SendFrame -> RecvPooled ->
//      view decode, diffing util::DataPlaneBytesCopied() to prove the
//      per-tensor copy reduction (acceptance floor: >= 2x fewer bytes).
//   3. GEMM at 512^3: the blocked backend serial vs sharded across a
//      4-worker util::ThreadPool (acceptance floor: >= 2x speedup); the
//      blocked backend's AVX2 tier vs its scalar loop nest under
//      util::ScopedForceScalar (acceptance floor: >= 3x where the tier
//      dispatches); and the kAvx2 backend serial vs that same scalar
//      loop nest (acceptance floor: >= 5x where its vector kernel
//      dispatches).
//   4. SIMD dispatch: AES-GCM accel vs forced-scalar on the same
//      payload (acceptance floor: >= 10x where AES-NI dispatches), and
//      seal+open MB/s of every GCM tier the host supports at 1, 4, 12
//      and 64 KiB records (acceptance floor: the VAES tier >= 1.5x the
//      AES-NI tier at 12 and 64 KiB where both run).
//   5. Empty poll: ns per zero-timeout RecvPooled on the attested pair
//      with nothing queued, and the voluntary context switches those
//      polls cost (acceptance floor: <= 10 per 1000 polls; a poll that
//      parks the thread costs one each).
//
// Results go to stdout and to a machine-readable JSON summary at
// $MVTEE_BENCH_JSON (default ./BENCH_data_plane.json) so CI can archive
// a baseline next to the observability artifacts. Every floor the run
// could not fail (host too small / no SIMD) is recorded as
// floor_applies=false + floor_waived=true next to the detected CPU
// features, so baseline comparisons can tell "passed" from "waived".
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/messages.h"
#include "crypto/aead.h"
#include "crypto/gcm_tiers.h"
#include "runtime/gemm.h"
#include "tee/enclave.h"
#include "tensor/tensor.h"
#include "transport/msg_channel.h"
#include "transport/secure_channel.h"
#include "util/buffer_pool.h"
#include "util/cpu_features.h"
#include "util/dataplane_stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mvtee::bench {
namespace {

using tensor::Shape;
using tensor::Tensor;
using transport::MsgChannel;
using transport::SecureChannel;
using transport::SecureMsgChannel;
using util::Bytes;

double MedianSeconds(std::vector<double> secs) {
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

// Times `fn` `reps` times and returns the median wall-clock seconds.
template <typename Fn>
double TimeMedian(int reps, const Fn& fn) {
  std::vector<double> secs;
  secs.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = util::NowNanos();
    fn();
    secs.push_back(static_cast<double>(util::NowNanos() - t0) * 1e-9);
  }
  return MedianSeconds(std::move(secs));
}

struct AeadResult {
  size_t payload = 0;
  double legacy_mbps = 0.0;   // Seal + Open, allocating
  double inplace_mbps = 0.0;  // SealInPlace + OpenInPlace
};

// Seal+open round trip so the in-place path is self-restoring (CTR is
// an XOR stream; OpenInPlace hands the buffer back as plaintext).
AeadResult RunAead(size_t payload, int inner_iters) {
  util::Rng rng(payload);
  Bytes key(32), nonce(crypto::kGcmNonceSize), aad(24), pt(payload);
  for (auto* b : {&key, &nonce, &aad, &pt}) {
    for (auto& byte : *b) byte = static_cast<uint8_t>(rng.NextU64());
  }
  crypto::AesGcm gcm(key);

  AeadResult out;
  out.payload = payload;
  const double bytes_per_run =
      static_cast<double>(payload) * inner_iters;

  const double legacy_s = TimeMedian(5, [&] {
    for (int i = 0; i < inner_iters; ++i) {
      Bytes sealed = gcm.Seal(nonce, aad, pt);
      auto opened = gcm.Open(nonce, aad, sealed);
      MVTEE_CHECK(opened.ok());
    }
  });
  out.legacy_mbps = bytes_per_run / legacy_s / 1e6;

  Bytes buf = pt;
  buf.resize(payload + crypto::kGcmTagSize);
  const double inplace_s = TimeMedian(5, [&] {
    for (int i = 0; i < inner_iters; ++i) {
      gcm.SealInPlace(nonce, aad, buf.data(), payload);
      auto n = gcm.OpenInPlace(nonce, aad, buf.data(), buf.size());
      MVTEE_CHECK(n.ok() && *n == payload);
    }
  });
  out.inplace_mbps = bytes_per_run / inplace_s / 1e6;
  return out;
}

// AES-GCM dispatch delta: the same seal+open round trip with the
// runtime dispatcher allowed to pick its fastest tier vs forced onto the
// portable 8-bit-table path. Ciphertext is identical either way; only
// throughput moves.
struct AeadDispatchResult {
  size_t payload = 0;
  bool accelerated = false;  // did the fast path actually dispatch?
  double accel_mbps = 0.0;
  double scalar_mbps = 0.0;
  double speedup() const {
    return scalar_mbps > 0 ? accel_mbps / scalar_mbps : 0.0;
  }
};

AeadDispatchResult RunAeadDispatch(size_t payload) {
  util::Rng rng(payload ^ 0x51d);
  Bytes key(32), nonce(crypto::kGcmNonceSize), aad(24), buf(payload);
  for (auto* b : {&key, &nonce, &aad, &buf}) {
    for (auto& byte : *b) byte = static_cast<uint8_t>(rng.NextU64());
  }
  crypto::AesGcm gcm(key);
  buf.resize(payload + crypto::kGcmTagSize);

  AeadDispatchResult out;
  out.payload = payload;
  out.accelerated = crypto::AesGcmAccelerated();
  auto round_trip = [&] {
    gcm.SealInPlace(nonce, aad, buf.data(), payload);
    auto n = gcm.OpenInPlace(nonce, aad, buf.data(), buf.size());
    MVTEE_CHECK(n.ok() && *n == payload);
  };
  const int iters = out.accelerated ? 16 : 4;
  round_trip();
  out.accel_mbps = static_cast<double>(payload) * iters /
                   TimeMedian(3, [&] {
                     for (int i = 0; i < iters; ++i) round_trip();
                   }) /
                   1e6;
  {
    util::ScopedForceScalar force_scalar;
    round_trip();
    out.scalar_mbps = static_cast<double>(payload) * 4 /
                      TimeMedian(3, [&] {
                        for (int i = 0; i < 4; ++i) round_trip();
                      }) /
                      1e6;
  }
  return out;
}

// Seal+open MB/s of each GCM tier, pinned with ScopedGcmTier, at the
// record sizes the channels carry (mvx records average ~3.5 KB,
// interactive ones ~12 KB). The tiers produce identical bytes
// (crypto_test), so only throughput differs.
constexpr crypto::GcmTier kGcmTiers[] = {crypto::GcmTier::kPortable,
                                         crypto::GcmTier::kAesNi,
                                         crypto::GcmTier::kVaes512};

struct AeadTierResult {
  size_t payload = 0;
  // Indexed by GcmTier (kGcmTiers is in enum order); 0 where the tier
  // is absent.
  double mbps[std::size(kGcmTiers)] = {};
  double of(crypto::GcmTier tier) const {
    return mbps[static_cast<size_t>(tier)];
  }
};

// Below this the VAES tier fails its floor against the AES-NI tier at
// the 12 and 64 KiB records.
constexpr double kWideTierFloor = 1.5;

std::vector<AeadTierResult> RunAeadTiers() {
  util::Rng rng(0x9c3);
  Bytes key(32), nonce(crypto::kGcmNonceSize), aad(24);
  for (auto* b : {&key, &nonce, &aad}) {
    for (auto& byte : *b) byte = static_cast<uint8_t>(rng.NextU64());
  }
  crypto::AesGcm gcm(key);
  std::vector<AeadTierResult> out;
  for (size_t payload : {size_t{1} << 10, size_t{4} << 10, size_t{12} << 10,
                         size_t{64} << 10}) {
    Bytes buf(payload + crypto::kGcmTagSize);
    for (auto& byte : buf) byte = static_cast<uint8_t>(rng.NextU64());
    AeadTierResult row;
    row.payload = payload;
    for (size_t t = 0; t < std::size(kGcmTiers); ++t) {
      if (!crypto::GcmTierSupported(kGcmTiers[t])) continue;
      crypto::ScopedGcmTier pin(kGcmTiers[t]);
      auto round_trip = [&] {
        gcm.SealInPlace(nonce, aad, buf.data(), payload);
        auto n = gcm.OpenInPlace(nonce, aad, buf.data(), buf.size());
        MVTEE_CHECK(n.ok() && *n == payload);
      };
      // ~4 MB per timed rep on the vector tiers, ~128 KB on portable.
      const size_t budget =
          kGcmTiers[t] == crypto::GcmTier::kPortable ? 128 << 10 : 4 << 20;
      const int iters = static_cast<int>(std::max<size_t>(2, budget / payload));
      round_trip();
      row.mbps[t] = static_cast<double>(payload) * iters /
                    TimeMedian(5, [&] {
                      for (int i = 0; i < iters; ++i) round_trip();
                    }) /
                    1e6;
    }
    out.push_back(row);
  }
  return out;
}

// VAES over AES-NI at the 12 and 64 KiB records (the lower of the two);
// 0 when the host lacks either tier.
double WideTierSpeedup(const std::vector<AeadTierResult>& tiers) {
  double worst = 0;
  for (const AeadTierResult& r : tiers) {
    if (r.payload < (12u << 10) || r.of(crypto::GcmTier::kAesNi) <= 0) {
      continue;
    }
    const double x =
        r.of(crypto::GcmTier::kVaes512) / r.of(crypto::GcmTier::kAesNi);
    worst = worst == 0 ? x : std::min(worst, x);
  }
  return worst;
}

// ------------------------------------------------ checkpoint round trip

struct ChannelPair {
  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 7}};
  std::unique_ptr<tee::Enclave> monitor;
  std::unique_ptr<tee::Enclave> variant;
  std::unique_ptr<MsgChannel> monitor_ch;
  std::unique_ptr<MsgChannel> variant_ch;

  bool Init() {
    auto m = cpu.LaunchEnclave(tee::TeeType::kSgx1, util::ToBytes("monitor"),
                               tee::MonitorManifest(), 64);
    auto v = cpu.LaunchEnclave(tee::TeeType::kSgx2, util::ToBytes("variant"),
                               tee::InitVariantManifest(), 1024);
    if (!m.ok() || !v.ok()) return false;
    monitor = std::move(*m);
    variant = std::move(*v);
    auto [a, b] = transport::CreateChannel();
    util::Result<std::unique_ptr<SecureChannel>> client(
        util::Internal("unset"));
    std::thread client_thread([&, ep = std::move(a)]() mutable {
      client = SecureChannel::Handshake(
          std::move(ep), SecureChannel::Role::kClient, *monitor,
          transport::AnyAttestedPeer(cpu), 1'000'000);
    });
    auto server = SecureChannel::Handshake(
        std::move(b), SecureChannel::Role::kServer, *variant,
        transport::AnyAttestedPeer(cpu), 1'000'000);
    client_thread.join();
    if (!client.ok() || !server.ok()) return false;
    monitor_ch = std::make_unique<SecureMsgChannel>(std::move(*client));
    variant_ch = std::make_unique<SecureMsgChannel>(std::move(*server));
    return true;
  }
};

struct RoundTripResult {
  size_t tensors = 0;
  uint64_t payload_bytes = 0;
  uint64_t legacy_copied = 0;  // per round trip
  uint64_t pooled_copied = 0;
  double legacy_mbps = 0.0;
  double pooled_mbps = 0.0;
  double copy_ratio() const {
    return pooled_copied > 0
               ? static_cast<double>(legacy_copied) /
                     static_cast<double>(pooled_copied)
               : 0.0;
  }
};

core::InferResultMsg MakeCheckpoint(size_t tensors, int64_t rows,
                                    int64_t cols) {
  util::Rng rng(99);
  core::InferResultMsg msg;
  msg.batch_id = 1;
  msg.ok = true;
  for (size_t i = 0; i < tensors; ++i) {
    msg.outputs.push_back(Tensor::RandomUniform(Shape({rows, cols}), rng));
  }
  return msg;
}

// One variant -> monitor checkpoint report. Legacy: encode into a fresh
// frame, copying Send/Recv, owning-copy decode. Pooled: single-pass
// SendFrame into one wire buffer, RecvPooled, view decode.
RoundTripResult RunRoundTrip(ChannelPair& pair, int iters) {
  const core::InferResultMsg msg = MakeCheckpoint(4, 128, 256);
  RoundTripResult out;
  out.tensors = msg.outputs.size();
  for (const auto& t : msg.outputs) out.payload_bytes += t.byte_size();

  auto legacy_once = [&] {
    Bytes frame = core::Encode(msg);
    MVTEE_CHECK(pair.variant_ch->Send(frame).ok());
    auto got = pair.monitor_ch->Recv(1'000'000);
    MVTEE_CHECK(got.ok());
    auto decoded = core::Decode<core::InferResultMsg>(*got);
    MVTEE_CHECK(decoded.ok() && decoded->outputs.size() == out.tensors);
  };
  auto pooled_once = [&] {
    MVTEE_CHECK(core::SendFrame(*pair.variant_ch, msg).ok());
    auto got = pair.monitor_ch->RecvPooled(1'000'000);
    MVTEE_CHECK(got.ok());
    auto decoded = core::Decode<core::InferResultMsg>(*got);
    MVTEE_CHECK(decoded.ok() && decoded->outputs.size() == out.tensors);
  };

  // Warm both directions so pool reuse (not cold misses) is measured.
  legacy_once();
  pooled_once();

  uint64_t copied0 = util::DataPlaneBytesCopied();
  const double legacy_s = TimeMedian(3, [&] {
    for (int i = 0; i < iters; ++i) legacy_once();
  });
  // 3 timed reps + the copy accounting below all run `iters` trips.
  out.legacy_copied =
      (util::DataPlaneBytesCopied() - copied0) / (3ull * iters);
  out.legacy_mbps =
      static_cast<double>(out.payload_bytes) * iters / legacy_s / 1e6;

  copied0 = util::DataPlaneBytesCopied();
  const double pooled_s = TimeMedian(3, [&] {
    for (int i = 0; i < iters; ++i) pooled_once();
  });
  out.pooled_copied =
      (util::DataPlaneBytesCopied() - copied0) / (3ull * iters);
  out.pooled_mbps =
      static_cast<double>(out.payload_bytes) * iters / pooled_s / 1e6;
  return out;
}

// ------------------------------------------------------- empty poll

// Above this many voluntary context switches per 1000 empty polls, a
// zero-timeout receive is parking the thread instead of polling.
constexpr double kMaxPollSwitchesPer1000 = 10.0;

struct PollResult {
  int polls = 0;  // per timed rep
  double ns_per_poll = 0.0;
  double switches_per_1000 = 0.0;
};

long VoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

// The monitor's event loop makes one such poll per variant channel per
// sweep before it blocks in its wait set (DESIGN.md §7).
PollResult RunEmptyPolls(ChannelPair& pair, int polls) {
  PollResult out;
  out.polls = polls;
  constexpr int kReps = 3;
  const long switches0 = VoluntarySwitches();
  const double secs = TimeMedian(kReps, [&] {
    for (int i = 0; i < polls; ++i) {
      MVTEE_CHECK(pair.monitor_ch->RecvPooled(0).status().code() ==
                  util::StatusCode::kDeadlineExceeded);
    }
  });
  out.ns_per_poll = secs * 1e9 / polls;
  out.switches_per_1000 =
      1000.0 * static_cast<double>(VoluntarySwitches() - switches0) /
      (kReps * polls);
  return out;
}

// ------------------------------------------------------------- GEMM

// Below this the blocked backend's AVX2 tier fails its floor against the
// scalar loop nest it replaces.
constexpr double kBlockedTierFloor = 3.0;

struct GemmResult {
  int64_t m = 0, n = 0, k = 0;
  size_t threads = 0;
  unsigned hw_threads = 0;  // what the host can actually run in parallel
  bool avx2_dispatched = false;     // did kAvx2 take the vector path?
  bool blocked_dispatched = false;  // did kBlocked take its AVX2 tier?
  double serial_gflops = 0.0;       // kBlocked, dispatched
  double parallel_gflops = 0.0;     // kBlocked, dispatched, sharded
  double scalar_serial_gflops = 0.0;  // kBlocked under ScopedForceScalar
  double avx2_serial_gflops = 0.0;
  double speedup() const {
    return serial_gflops > 0 ? parallel_gflops / serial_gflops : 0.0;
  }
  double blocked_tier_speedup() const {
    return scalar_serial_gflops > 0 ? serial_gflops / scalar_serial_gflops
                                    : 0.0;
  }
  double avx2_speedup() const {
    return scalar_serial_gflops > 0
               ? avx2_serial_gflops / scalar_serial_gflops
               : 0.0;
  }
};

GemmResult RunGemm(int64_t m, int64_t n, int64_t k, size_t threads) {
  util::Rng rng(7);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (auto& x : a) x = rng.UniformFloat(-1.0f, 1.0f);
  for (auto& x : b) x = rng.UniformFloat(-1.0f, 1.0f);

  GemmResult out;
  out.m = m;
  out.n = n;
  out.k = k;
  out.threads = threads;
  out.hw_threads = std::max(1u, std::thread::hardware_concurrency());
  util::ThreadPool pool(threads);
  const double flops = 2.0 * static_cast<double>(m) * n * k;

  auto serial = [&] {
    runtime::Gemm(runtime::GemmBackend::kBlocked, a.data(), b.data(),
                  c.data(), m, n, k, nullptr);
  };
  auto parallel = [&] {
    runtime::Gemm(runtime::GemmBackend::kBlocked, a.data(), b.data(),
                  c.data(), m, n, k, &pool);
  };
  auto avx2_serial = [&] {
    runtime::Gemm(runtime::GemmBackend::kAvx2, a.data(), b.data(), c.data(),
                  m, n, k, nullptr);
  };
  serial();       // warm caches
  parallel();     // warm pool
  avx2_serial();  // warm packed-panel path
  out.avx2_dispatched = runtime::GemmAvx2Accelerated();
  out.blocked_dispatched = runtime::GemmBlockedAccelerated();
  out.serial_gflops = flops / TimeMedian(5, serial) / 1e9;
  out.parallel_gflops = flops / TimeMedian(5, parallel) / 1e9;
  out.avx2_serial_gflops = flops / TimeMedian(5, avx2_serial) / 1e9;
  {
    // The scalar loop nest: the blocked tier's reference, and the
    // baseline the kAvx2 floor has always been measured against.
    util::ScopedForceScalar force_scalar;
    out.scalar_serial_gflops = flops / TimeMedian(5, serial) / 1e9;
  }
  return out;
}

// --------------------------------------------------------------- main

void WriteJson(const std::vector<AeadResult>& aead,
               const AeadDispatchResult& aead_disp,
               const std::vector<AeadTierResult>& tiers,
               const RoundTripResult& rt, const PollResult& poll,
               const GemmResult& gemm) {
  const char* path = std::getenv("MVTEE_BENCH_JSON");
  if (path == nullptr) path = "BENCH_data_plane.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"data_plane\",\n");
  std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
               util::CpuFeatureString().c_str());
  std::fprintf(f, "  \"aead\": [\n");
  for (size_t i = 0; i < aead.size(); ++i) {
    std::fprintf(f,
                 "    {\"payload_bytes\": %zu, \"legacy_mbps\": %.1f, "
                 "\"inplace_mbps\": %.1f}%s\n",
                 aead[i].payload, aead[i].legacy_mbps, aead[i].inplace_mbps,
                 i + 1 < aead.size() ? "," : "");
  }
  const bool aead_floor_applies = aead_disp.accelerated;
  std::fprintf(
      f,
      "  ],\n  \"aead_dispatch\": {\n"
      "    \"payload_bytes\": %zu,\n"
      "    \"accelerated\": %s,\n"
      "    \"accel_mbps\": %.1f,\n"
      "    \"scalar_mbps\": %.1f,\n"
      "    \"speedup_x\": %.2f,\n"
      "    \"floor_applies\": %s,\n"
      "    \"floor_waived\": %s\n  },\n",
      aead_disp.payload, aead_disp.accelerated ? "true" : "false",
      aead_disp.accel_mbps, aead_disp.scalar_mbps, aead_disp.speedup(),
      aead_floor_applies ? "true" : "false",
      aead_floor_applies ? "false" : "true");
  std::fprintf(f, "  \"aead_tiers\": {\n    \"selected\": \"%s\",\n"
                  "    \"seal_open_mbps\": [\n",
               crypto::GcmTierName(crypto::SelectedGcmTier()));
  for (size_t i = 0; i < tiers.size(); ++i) {
    std::fprintf(f, "      {\"payload_bytes\": %zu", tiers[i].payload);
    for (size_t t = 0; t < std::size(kGcmTiers); ++t) {
      if (tiers[i].mbps[t] > 0) {
        std::fprintf(f, ", \"%s\": %.1f", crypto::GcmTierName(kGcmTiers[t]),
                     tiers[i].mbps[t]);
      } else {
        std::fprintf(f, ", \"%s\": null", crypto::GcmTierName(kGcmTiers[t]));
      }
    }
    std::fprintf(f, "}%s\n", i + 1 < tiers.size() ? "," : "");
  }
  const double wide_x = WideTierSpeedup(tiers);
  std::fprintf(f,
               "    ],\n    \"wide_vs_128_speedup_x\": %.2f,\n"
               "    \"floor_applies\": %s,\n"
               "    \"floor_waived\": %s\n  },\n",
               wide_x, wide_x > 0 ? "true" : "false",
               wide_x > 0 ? "false" : "true");
  std::fprintf(
      f,
      "  \"checkpoint_round_trip\": {\n"
      "    \"tensors\": %zu,\n    \"payload_bytes\": %llu,\n"
      "    \"legacy_copied_bytes\": %llu,\n"
      "    \"pooled_copied_bytes\": %llu,\n"
      "    \"copy_reduction_x\": %.2f,\n"
      "    \"legacy_mbps\": %.1f,\n    \"pooled_mbps\": %.1f\n  },\n",
      rt.tensors, static_cast<unsigned long long>(rt.payload_bytes),
      static_cast<unsigned long long>(rt.legacy_copied),
      static_cast<unsigned long long>(rt.pooled_copied), rt.copy_ratio(),
      rt.legacy_mbps, rt.pooled_mbps);
  std::fprintf(f,
               "  \"empty_poll\": {\n"
               "    \"polls\": %d,\n    \"ns_per_poll\": %.1f,\n"
               "    \"voluntary_switches_per_1000\": %.2f,\n"
               "    \"floor_max_switches_per_1000\": %.0f,\n"
               "    \"floor_applies\": true,\n"
               "    \"floor_waived\": false\n  },\n",
               poll.polls, poll.ns_per_poll, poll.switches_per_1000,
               kMaxPollSwitchesPer1000);
  const bool parallel_floor_applies = gemm.hw_threads >= 4;
  const bool blocked_floor_applies = gemm.blocked_dispatched;
  const bool avx2_floor_applies = gemm.avx2_dispatched;
  std::fprintf(
      f,
      "  \"gemm\": {\n    \"m\": %lld, \"n\": %lld, \"k\": %lld,\n"
      "    \"threads\": %zu,\n    \"hw_threads\": %u,\n"
      "    \"serial_gflops\": %.2f,\n"
      "    \"parallel_gflops\": %.2f,\n    \"speedup_x\": %.2f,\n"
      "    \"parallel_floor_applies\": %s,\n"
      "    \"parallel_floor_waived\": %s,\n"
      "    \"blocked_dispatched\": %s,\n"
      "    \"scalar_serial_gflops\": %.2f,\n"
      "    \"blocked_tier_speedup_x\": %.2f,\n"
      "    \"blocked_tier_floor_applies\": %s,\n"
      "    \"blocked_tier_floor_waived\": %s,\n"
      "    \"avx2_dispatched\": %s,\n"
      "    \"avx2_serial_gflops\": %.2f,\n"
      "    \"avx2_speedup_x\": %.2f,\n"
      "    \"avx2_floor_applies\": %s,\n"
      "    \"avx2_floor_waived\": %s\n  }\n}\n",
      static_cast<long long>(gemm.m), static_cast<long long>(gemm.n),
      static_cast<long long>(gemm.k), gemm.threads, gemm.hw_threads,
      gemm.serial_gflops, gemm.parallel_gflops, gemm.speedup(),
      parallel_floor_applies ? "true" : "false",
      parallel_floor_applies ? "false" : "true",
      gemm.blocked_dispatched ? "true" : "false", gemm.scalar_serial_gflops,
      gemm.blocked_tier_speedup(), blocked_floor_applies ? "true" : "false",
      blocked_floor_applies ? "false" : "true",
      gemm.avx2_dispatched ? "true" : "false", gemm.avx2_serial_gflops,
      gemm.avx2_speedup(), avx2_floor_applies ? "true" : "false",
      avx2_floor_applies ? "false" : "true");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  PrintFigureHeader("Data plane",
                    "In-place AEAD, pooled checkpoint round trip, and "
                    "shared-pool GEMM vs their copying/serial baselines");

  // 1. AEAD seal+open round trips.
  std::printf("%-12s | %14s %14s | %6s\n", "AEAD payload", "legacy MB/s",
              "in-place MB/s", "x");
  PrintRule();
  std::vector<AeadResult> aead;
  for (auto [payload, iters] : {std::pair<size_t, int>{4 << 10, 64},
                                {64 << 10, 16},
                                {1 << 20, 2}}) {
    aead.push_back(RunAead(payload, iters));
    const AeadResult& r = aead.back();
    std::printf("%9zu KiB | %14.1f %14.1f | %5.2fx\n", r.payload >> 10,
                r.legacy_mbps, r.inplace_mbps,
                r.legacy_mbps > 0 ? r.inplace_mbps / r.legacy_mbps : 0.0);
  }

  // 1b. AES-GCM dispatch delta (selected tier vs portable tables).
  const AeadDispatchResult aead_disp = RunAeadDispatch(1 << 20);
  std::printf("\nAES-GCM dispatch [%s]: accel %.1f MB/s vs scalar %.1f MB/s"
              " | %.2fx (floor: 10x)%s\n",
              util::CpuFeatureString().c_str(), aead_disp.accel_mbps,
              aead_disp.scalar_mbps, aead_disp.speedup(),
              aead_disp.accelerated
                  ? (aead_disp.speedup() >= 10.0 ? ""
                                                 : "  ** BELOW FLOOR **")
                  : "  (floor waived: no AES-NI dispatch)");

  // 1c. Every GCM tier the host supports, at the channels' record sizes.
  const std::vector<AeadTierResult> tiers = RunAeadTiers();
  std::printf("\nAES-GCM tiers, seal+open MB/s (selected: %s)\n",
              crypto::GcmTierName(crypto::SelectedGcmTier()));
  PrintRule();
  std::printf("%-12s |", "payload");
  for (crypto::GcmTier tier : kGcmTiers) {
    std::printf(" %10s", crypto::GcmTierName(tier));
  }
  std::printf("\n");
  for (const AeadTierResult& r : tiers) {
    std::printf("%9zu KiB |", r.payload >> 10);
    for (double mbps : r.mbps) {
      if (mbps > 0) {
        std::printf(" %10.1f", mbps);
      } else {
        std::printf(" %10s", "-");
      }
    }
    std::printf("\n");
  }
  const double wide_x = WideTierSpeedup(tiers);
  const bool wide_measured = wide_x > 0;
  std::printf("vaes512 vs aesni128 at 12/64 KiB: %.2fx (floor: %.1fx)%s\n",
              wide_x, kWideTierFloor,
              wide_measured ? (wide_x >= kWideTierFloor ? ""
                                                        : "  ** BELOW FLOOR **")
                            : "  (floor waived: no VAES tier on this host)");

  // 2. Checkpoint round trip over an attested secure channel.
  ChannelPair pair;
  if (!pair.Init()) {
    std::printf("secure-channel setup failed\n");
    return 1;
  }
  auto base = MetricsBaseline();
  const RoundTripResult rt = RunRoundTrip(pair, /*iters=*/8);
  std::printf("\ncheckpoint round trip (%zu tensors, %llu payload bytes)\n",
              rt.tensors, static_cast<unsigned long long>(rt.payload_bytes));
  PrintRule();
  std::printf("%-8s | %16s %12s\n", "path", "copied B/trip", "MB/s");
  std::printf("%-8s | %16llu %12.1f\n", "legacy",
              static_cast<unsigned long long>(rt.legacy_copied),
              rt.legacy_mbps);
  std::printf("%-8s | %16llu %12.1f\n", "pooled",
              static_cast<unsigned long long>(rt.pooled_copied),
              rt.pooled_mbps);
  std::printf("copy reduction: %.2fx (floor: 2x)%s\n", rt.copy_ratio(),
              rt.copy_ratio() >= 2.0 ? "" : "  ** BELOW FLOOR **");
  obs::SyncDataPlaneMetrics();
  DumpMetricsJson("data_plane/round_trip", &base);

  // 2b. Empty zero-timeout polls on the same attested pair.
  const PollResult poll = RunEmptyPolls(pair, /*polls=*/10'000);
  const bool poll_ok = poll.switches_per_1000 <= kMaxPollSwitchesPer1000;
  std::printf("\nempty RecvPooled(0): %.1f ns/poll, %.2f voluntary "
              "switches per 1000 polls (floor: <= %.0f)%s\n",
              poll.ns_per_poll, poll.switches_per_1000,
              kMaxPollSwitchesPer1000, poll_ok ? "" : "  ** FAILS FLOOR **");

  // 3. Blocked GEMM, serial vs 4-thread shared pool.
  const GemmResult gemm = RunGemm(512, 512, 512, /*threads=*/4);
  // The 2x floor only applies where the host can actually run the
  // shards in parallel; on a 1-2 core machine the bench still reports
  // the numbers but cannot fail on them.
  const bool gemm_floor_applies = gemm.hw_threads >= 4;
  std::printf("\nGEMM %lldx%lldx%lld blocked (%u hw threads)\n",
              static_cast<long long>(gemm.m), static_cast<long long>(gemm.n),
              static_cast<long long>(gemm.k), gemm.hw_threads);
  PrintRule();
  std::printf("serial: %6.2f GFLOP/s | %zu threads: %6.2f GFLOP/s | "
              "speedup %.2fx (floor: 2x)%s\n",
              gemm.serial_gflops, gemm.threads, gemm.parallel_gflops,
              gemm.speedup(),
              gemm.speedup() >= 2.0
                  ? ""
                  : gemm_floor_applies ? "  ** BELOW FLOOR **"
                                       : "  (floor waived: host too small)");
  std::printf("blocked forced scalar: %6.2f GFLOP/s | AVX2 tier %.2fx "
              "(floor: %.0fx)%s\n",
              gemm.scalar_serial_gflops, gemm.blocked_tier_speedup(),
              kBlockedTierFloor,
              gemm.blocked_dispatched
                  ? (gemm.blocked_tier_speedup() >= kBlockedTierFloor
                         ? ""
                         : "  ** BELOW FLOOR **")
                  : "  (floor waived: no AVX2 dispatch)");
  std::printf("avx2 serial: %6.2f GFLOP/s | vs blocked forced scalar %.2fx "
              "(floor: 5x)%s\n",
              gemm.avx2_serial_gflops, gemm.avx2_speedup(),
              gemm.avx2_dispatched
                  ? (gemm.avx2_speedup() >= 5.0 ? ""
                                                : "  ** BELOW FLOOR **")
                  : "  (floor waived: no AVX2 dispatch)");

  WriteJson(aead, aead_disp, tiers, rt, poll, gemm);
  const bool ok = rt.copy_ratio() >= 2.0 && poll_ok &&
                  (!wide_measured || wide_x >= kWideTierFloor) &&
                  (!gemm_floor_applies || gemm.speedup() >= 2.0) &&
                  (!gemm.blocked_dispatched ||
                   gemm.blocked_tier_speedup() >= kBlockedTierFloor) &&
                  (!gemm.avx2_dispatched || gemm.avx2_speedup() >= 5.0) &&
                  (!aead_disp.accelerated || aead_disp.speedup() >= 10.0);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
