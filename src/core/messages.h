// Monitor <-> variant and variant <-> variant protocol messages
// (carried over SecureChannel / MsgChannel frames).
//
// Each message declares its wire layout once: a tag (`kType`) and a
// `Fields(m, v)` list of its fields in wire order. The codec below
// (messages.cc) walks that list with three visitors — size, write and
// read — so a frame is `tag(1) || fields` with
//   bool, uint8_t           1 byte; decode maps any nonzero byte to true
//   [u]int32_t, [u]int64_t  big-endian; signed as two's-complement bits
//   std::string, Bytes      u32 length || bytes
//   Sha256Digest            32 raw bytes
//   pair, nested struct     their members / Fields, in order
//   tensors                 the tensor container (messages.cc), <= 1024
//   v.List(xs, max[, each]) u32 count || elements; decode rejects > max
//   v.AtMost(x, max)        the scalar; decode rejects x > max
//   v.SameSize(a, b)        no bytes; decode rejects unequal counts,
//                           encode MVTEE_CHECKs them
// `M` is the const message when sizing or writing, mutable when reading.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "obs/trace.h"
#include "tensor/tensor.h"
#include "transport/msg_channel.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mvtee::core {

enum class MsgType : uint8_t {
  kAssignIdentity = 1,  // monitor -> variant: id + variant key
  kIdentityAck,         // variant -> monitor: locked manifest evidence
  kInfer,               // monitor -> variant: slot-addressed stage inputs
  kInferResult,         // variant -> monitor: outputs or an error
  kShutdown,            // monitor -> variant
  kSetupRoutes,         // monitor -> variant: fast-path wiring (Fig. 7)
  kRoutesAck,           // variant -> monitor
  kStageData,           // variant -> variant: direct fast-path tensors
  kProvision,           // owner -> monitor: MVX config + keys + nonce
  kProvisionResult,     // monitor -> owner: init outcome bound to nonce
  kAttestQuery,         // user/owner -> monitor: combined attestation
  kAttestReply,         // monitor -> user/owner: all bound TEE reports
  kSessionSubmit,       // client -> service: one inference request
  kSessionReply,        // service -> client: outputs or an error
};

struct AssignIdentityMsg {
  static constexpr MsgType kType = MsgType::kAssignIdentity;
  std::string variant_id;
  util::Bytes variant_key;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.variant_id);
    v(m.variant_key);
  }
};

struct IdentityAckMsg {
  static constexpr MsgType kType = MsgType::kIdentityAck;
  std::string variant_id;
  crypto::Sha256Digest manifest_hash{};  // installed second-stage manifest
  bool ok = false;
  std::string error;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.variant_id);
    v(m.manifest_hash);
    v(m.ok);
    v(m.error);
  }
};

// Stage inputs addressed by slot (= index into the stage subgraph's
// input list). A message may carry any subset of slots; the variant
// assembles a batch from monitor messages and direct upstream messages
// and runs once every slot is filled.
struct InferMsg {
  static constexpr MsgType kType = MsgType::kInfer;
  uint64_t batch_id = 0;
  // Virtual-time arrival stamp (performance model; see monitor.h).
  uint64_t vtime_us = 0;
  std::vector<uint32_t> slots;
  std::vector<tensor::Tensor> inputs;  // parallel to slots

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.batch_id);
    v(m.vtime_us);
    v.List(m.slots, 1024);
    v(m.inputs);
    v.SameSize(m.slots, m.inputs);
  }
};

struct InferResultMsg {
  static constexpr MsgType kType = MsgType::kInferResult;
  uint64_t batch_id = 0;
  uint64_t vtime_us = 0;
  bool ok = false;
  std::vector<tensor::Tensor> outputs;
  std::string error;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.batch_id);
    v(m.vtime_us);
    v(m.ok);
    v(m.outputs);
    v(m.error);
  }
};

struct ShutdownMsg {
  static constexpr MsgType kType = MsgType::kShutdown;

  template <class M, class V>
  static void Fields(M&, V&) {}
};

// Fast-path routing (Fig. 7). Upstream entries describe pipes this
// variant consumes from; downstream entries describe pipes it produces
// into, with an (output index -> remote slot) map per pipe.
struct UpstreamRoute {
  uint64_t pipe_id = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.pipe_id);
  }
};
struct DownstreamRoute {
  uint64_t pipe_id = 0;
  std::vector<std::pair<uint32_t, uint32_t>> output_to_slot;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.pipe_id);
    v.List(m.output_to_slot, 1024);
  }
};
struct SetupRoutesMsg {
  static constexpr MsgType kType = MsgType::kSetupRoutes;
  std::vector<UpstreamRoute> upstream;
  std::vector<DownstreamRoute> downstream;
  // Whether full outputs must still be reported to the monitor (MVX
  // panels and stages producing model outputs).
  bool report_to_monitor = true;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v.List(m.upstream, 256);
    v.List(m.downstream, 256);
    v(m.report_to_monitor);
  }
};

struct RoutesAckMsg {
  static constexpr MsgType kType = MsgType::kRoutesAck;
  bool ok = false;
  std::string error;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.ok);
    v(m.error);
  }
};

// Direct variant->variant payload: tensors addressed to consumer slots.
struct StageDataMsg {
  static constexpr MsgType kType = MsgType::kStageData;
  uint64_t batch_id = 0;
  uint64_t vtime_us = 0;
  std::vector<uint32_t> slots;
  std::vector<tensor::Tensor> tensors;  // parallel to slots

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.batch_id);
    v(m.vtime_us);
    v.List(m.slots, 1024);
    v(m.tensors);
    v.SameSize(m.slots, m.tensors);
  }
};

// ---- owner <-> monitor provisioning (Fig. 6 steps 2-3 and 8) ----

struct ProvisionMsg {
  static constexpr MsgType kType = MsgType::kProvision;
  util::Bytes nonce;              // anti-replay (Fig. 6 step 3)
  util::Bytes bundle_config;      // OfflineBundle::SerializeConfig()
  std::vector<std::vector<std::string>> stage_variant_ids;  // MVX config

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.nonce);
    v(m.bundle_config);
    v.List(m.stage_variant_ids, 256,
           [](auto& w, auto& ids) { w.List(ids, 64); });
  }
};

struct ProvisionResultMsg {
  static constexpr MsgType kType = MsgType::kProvisionResult;
  util::Bytes nonce;  // echoed for verification (Fig. 6 step 8)
  bool ok = false;
  std::string error;
  // Binding summary (variant id per stage, in binding order).
  std::vector<std::string> bound_variant_ids;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.nonce);
    v(m.ok);
    v(m.error);
    v.List(m.bound_variant_ids, 4096);
  }
};

struct AttestQueryMsg {
  static constexpr MsgType kType = MsgType::kAttestQuery;
  util::Bytes nonce;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.nonce);
  }
};

struct AttestReplyMsg {
  static constexpr MsgType kType = MsgType::kAttestReply;
  util::Bytes nonce;
  // Serialized AttestationReports of every bound variant TEE (launch
  // measurements), attested collectively through the monitor.
  std::vector<util::Bytes> variant_reports;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.nonce);
    v.List(m.variant_reports, 4096);
  }
};

// ---- client <-> service session requests (DESIGN.md §11) ----
//
// Carried over the per-session RA-TLS channel established by the
// inference service front end. The channel already binds a per-record
// monotonic sequence number into the AAD; `seq` additionally names the
// request inside the session's application-level sequence space, so the
// service can pair replies to requests and detect replayed/reordered
// Submit frames even if a future transport multiplexes records.

struct SessionSubmitMsg {
  static constexpr MsgType kType = MsgType::kSessionSubmit;
  uint64_t seq = 0;
  // Relative per-request budget, microseconds; 0 = no deadline. A
  // negative value decodes fine (it consumes the seq) and is rejected
  // at admission with kAdmissionRejected — an expired budget is a
  // client-side condition, not a malformed frame.
  int64_t deadline_us = 0;
  // Scheduling hints (DESIGN.md §13): plaintext-equivalent labels for
  // the multi-tenant scheduler. They steer WFQ/quota/EDF ordering only
  // and are never bound into the attested channel's AAD — a forged
  // label can skew fairness for the forging client, never integrity.
  std::string tenant;    // "" = shared default tenant
  int32_t priority = 0;  // higher dispatches earlier within a tenant
  std::string model;     // model-zoo route ("" = the service default)
  std::vector<tensor::Tensor> inputs;  // one model-input batch

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.seq);
    v(m.deadline_us);
    v(m.priority);
    v(m.tenant);
    v(m.model);
    v(m.inputs);
  }
};

struct SessionReplyMsg {
  static constexpr MsgType kType = MsgType::kSessionReply;
  uint64_t seq = 0;  // echoes the request
  uint8_t code = 0;  // util::StatusCode of the outcome
  int64_t latency_us = 0;  // admission -> completion, service clock
  std::string error;
  std::vector<tensor::Tensor> outputs;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.seq);
    v.AtMost(m.code,
             static_cast<uint8_t>(util::StatusCode::kHandshakeFailure));
    v(m.latency_us);
    v(m.error);
    v(m.outputs);
  }
};

// ---- codec, derived from the field lists (messages.cc) ----
//
// EncodedSize() is the exact length EncodeInto()/Encode() produce, so a
// sender can acquire one right-sized pooled buffer and write the whole
// record (header + payload) in a single pass. EncodeInto appends to
// `out`; tensor containers insert 0-3 zero pad bytes before each tensor
// so its float payload lands 4-byte aligned relative to the frame start
// (out.size() at entry) — the property that lets the receiver alias
// tensors in the opened record.
template <class M>
size_t EncodedSize(const M& msg);
template <class M>
void EncodeInto(const M& msg, util::Bytes& out);

template <class M>
util::Bytes Encode(const M& msg) {
  util::Bytes out;
  out.reserve(EncodedSize(msg));
  EncodeInto(msg, out);
  return out;
}

// Checks the tag, every cap and count in the field list, and that no
// byte trails; errors name the message type. With a keepalive, decoded
// tensors are views aliasing `frame` (DeserializeView falls back to an
// owned copy if a payload landed misaligned); without one they are
// owned copies.
template <class M>
util::Result<M> Decode(util::ByteSpan frame,
                       const std::shared_ptr<const void>& keepalive = nullptr);

// Zero-copy decode of a pooled frame: tensors in the result are views
// aliasing the frame's buffer (pinned via its keepalive), not copies.
template <class M>
util::Result<M> Decode(const transport::InFrame& frame) {
  return Decode<M>(frame.span(), frame.keepalive());
}

// Encodes the message straight into the channel's pooled wire buffer
// (no intermediate frame) and sends it.
template <class M>
util::Status SendFrame(transport::MsgChannel& channel, const M& msg,
                       util::ByteSpan header = {}) {
  return channel.SendEncoded(
      EncodedSize(msg), header,
      [&msg](util::Bytes& out) { EncodeInto(msg, out); });
}

// Peeks the type tag; error on empty/unknown frames.
util::Result<MsgType> PeekType(util::ByteSpan frame);

// ---- cross-TEE trace-context header (DESIGN.md §8) ----
//
// Carried as the secure channel's *authenticated plaintext* record
// header alongside kInfer / kInferResult / kStageData frames: 16 bytes,
// trace_id(8) || span_id(8), big-endian. Integrity-protected via the
// record AAD; contains ids only, never model data. An empty header
// decodes to an invalid (all-zero) context.
util::Bytes EncodeTraceContext(const obs::TraceContext& ctx);
util::Result<obs::TraceContext> DecodeTraceContext(util::ByteSpan header);

}  // namespace mvtee::core
