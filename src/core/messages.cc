#include "core/messages.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <type_traits>

namespace mvtee::core {

namespace {
// Tensor container: count(4), then per tensor
//   pad_len(1) || <pad_len zero bytes> || len(4) || tensor bytes
// pad_len (0-3) is chosen so the tensor's serialized bytes start 4-byte
// aligned relative to the *frame base*. The inner tensor header is a
// multiple of 4 bytes, so the float payload is then frame-aligned too,
// which is what lets a receiver alias it in place via
// tensor::Tensor::DeserializeView instead of copying.
constexpr uint32_t kMaxTensors = 1024;

uint8_t TensorPad(size_t pos) {
  // `pos` is the frame-relative offset of the pad_len byte; the tensor
  // bytes start at pos + 1 + pad + 4.
  return static_cast<uint8_t>((4 - ((pos + 5) % 4)) % 4);
}

// The unsigned wire word of an integral field: 1, 4 or 8 bytes.
template <size_t N>
using Word = std::conditional_t<
    N == 1, uint8_t, std::conditional_t<N == 4, uint32_t, uint64_t>>;

template <class T>
constexpr bool kIsPair = false;
template <class A, class B>
constexpr bool kIsPair<std::pair<A, B>> = true;

// Visits one list element as a field (the default for v.List).
struct VisitEach {
  template <class V, class T>
  void operator()(V& v, T& x) const {
    v(x);
  }
};

// Field-kind dispatch shared by the three visitors: each field goes to
// the visitor's primitive for its wire kind — Int, Blob, Digest or
// Tensors — and pairs and nested structs are walked member by member.
template <class Self>
struct FieldVisitor {
  template <class T>
  void operator()(T& field) {
    Self& self = static_cast<Self&>(*this);
    using U = std::remove_const_t<T>;
    if constexpr (std::is_integral_v<U>) {
      static_assert(sizeof(U) == 1 || sizeof(U) == 4 || sizeof(U) == 8);
      self.Int(field);
    } else if constexpr (std::is_same_v<U, std::string> ||
                         std::is_same_v<U, util::Bytes>) {
      self.Blob(field);
    } else if constexpr (std::is_same_v<U, crypto::Sha256Digest>) {
      self.Digest(field);
    } else if constexpr (std::is_same_v<U, std::vector<tensor::Tensor>>) {
      self.Tensors(field);
    } else if constexpr (kIsPair<U>) {
      self(field.first);
      self(field.second);
    } else {
      U::Fields(field, self);
    }
  }
};

// Counts a frame's bytes. `pos` is frame-relative (it starts past the
// tag byte), which is what the tensor pads depend on.
struct Sizer : FieldVisitor<Sizer> {
  size_t pos = 1;

  template <class T>
  void Int(T) {
    pos += sizeof(T);
  }
  template <class T>
  void Blob(const T& blob) {
    pos += 4 + blob.size();
  }
  void Digest(const crypto::Sha256Digest& digest) { pos += digest.size(); }
  void Tensors(const std::vector<tensor::Tensor>& tensors) {
    pos += 4;
    for (const auto& t : tensors) {
      pos += 1 + TensorPad(pos) + 4 + t.SerializedSize();
    }
  }
  template <class T, class Each = VisitEach>
  void List(const std::vector<T>& xs, uint32_t /*max*/, Each each = {}) {
    pos += 4;
    for (const auto& x : xs) each(*this, x);
  }
  template <class T>
  void AtMost(const T& x, T /*max*/) {
    (*this)(x);
  }
  template <class A, class B>
  void SameSize(const A&, const B&) {}
};

// Appends a frame's fields to `out`; tensor pads are relative to the
// frame start, `base`.
struct Writer : FieldVisitor<Writer> {
  explicit Writer(util::Bytes& out) : out(out), base(out.size()) {}

  util::Bytes& out;
  const size_t base;

  template <class T>
  void Int(T value) {
    const auto word = static_cast<Word<sizeof(T)>>(value);
    if constexpr (sizeof(T) == 1) {
      util::AppendU8(out, word);
    } else if constexpr (sizeof(T) == 4) {
      util::AppendU32(out, word);
    } else {
      util::AppendU64(out, word);
    }
  }
  void Blob(const std::string& s) { util::AppendLengthPrefixedStr(out, s); }
  void Blob(const util::Bytes& b) { util::AppendLengthPrefixed(out, b); }
  void Digest(const crypto::Sha256Digest& digest) {
    util::AppendBytes(out, digest);
  }
  void Tensors(const std::vector<tensor::Tensor>& tensors) {
    util::AppendU32(out, static_cast<uint32_t>(tensors.size()));
    for (const auto& t : tensors) {
      const uint8_t pad = TensorPad(out.size() - base);
      util::AppendU8(out, pad);
      out.resize(out.size() + pad);
      util::AppendU32(out, static_cast<uint32_t>(t.SerializedSize()));
      t.SerializeInto(out);
    }
  }
  template <class T, class Each = VisitEach>
  void List(const std::vector<T>& xs, uint32_t /*max*/, Each each = {}) {
    util::AppendU32(out, static_cast<uint32_t>(xs.size()));
    for (const auto& x : xs) each(*this, x);
  }
  template <class T>
  void AtMost(const T& x, T /*max*/) {
    (*this)(x);
  }
  template <class A, class B>
  void SameSize(const A& a, const B& b) {
    MVTEE_CHECK(a.size() == b.size());
  }
};

// Reads a frame's fields. The first malformed field records the error
// and empties the input, so every later field fails fast and the
// reported reason is the first one.
class Reader : public FieldVisitor<Reader> {
 public:
  Reader(util::ByteSpan body, const std::shared_ptr<const void>& keepalive)
      : in_(body), keepalive_(keepalive) {}

  template <class T>
  void Int(T& value) {
    Word<sizeof(T)> word = 0;
    if (Read(word)) value = static_cast<T>(word);  // bool: nonzero is true
  }
  void Blob(std::string& s) { Check(in_.ReadLengthPrefixedStr(s)); }
  void Blob(util::Bytes& b) { Check(in_.ReadLengthPrefixed(b)); }
  void Digest(crypto::Sha256Digest& digest) {
    util::ByteSpan raw;
    if (Check(in_.ReadSpan(digest.size(), raw))) {
      std::copy(raw.begin(), raw.end(), digest.begin());
    }
  }
  void Tensors(std::vector<tensor::Tensor>& tensors) {
    uint32_t count = 0;
    if (!Count(count, kMaxTensors)) return;
    tensors.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint8_t pad = 0;
      uint32_t len = 0;
      util::ByteSpan payload;
      if (!Read(pad)) return;
      if (pad > 3) return Fail("tensor pad " + std::to_string(pad));
      if (!Check(in_.Skip(pad)) || !Read(len) ||
          !Check(in_.ReadSpan(len, payload))) {
        return;
      }
      auto t = tensor::Tensor::DeserializeView(payload, keepalive_);
      if (!t.ok()) return Fail(t.status().message());
      tensors.push_back(std::move(*t));
    }
  }
  template <class T, class Each = VisitEach>
  void List(std::vector<T>& xs, uint32_t max, Each each = {}) {
    uint32_t count = 0;
    if (!Count(count, max)) return;
    xs.resize(count);
    for (auto& x : xs) each(*this, x);
  }
  template <class T>
  void AtMost(T& x, T max) {
    (*this)(x);
    if (x > max) Fail("value " + std::to_string(x) + " out of range");
  }
  template <class A, class B>
  void SameSize(const A& a, const B& b) {
    if (a.size() != b.size()) {
      Fail("parallel lists of " + std::to_string(a.size()) + " and " +
           std::to_string(b.size()));
    }
  }

  // The outcome once every field is read: trailing bytes are an error.
  util::Status Finish(std::string_view name) {
    if (error_.empty() && !in_.done()) error_ = "trailing bytes";
    if (error_.empty()) return util::OkStatus();
    return util::InvalidArgument("malformed " + std::string(name) + ": " +
                                 error_);
  }

 private:
  bool Read(uint8_t& w) { return Check(in_.ReadU8(w)); }
  bool Read(uint32_t& w) { return Check(in_.ReadU32(w)); }
  bool Read(uint64_t& w) { return Check(in_.ReadU64(w)); }
  bool Count(uint32_t& count, uint32_t max) {
    if (!Read(count)) return false;
    if (count <= max) return true;
    Fail("count " + std::to_string(count) + " exceeds " +
         std::to_string(max));
    return false;
  }
  bool Check(bool read) {
    if (!read) Fail("truncated");
    return read;
  }
  void Fail(std::string why) {
    if (error_.empty()) error_ = std::move(why);
    in_ = util::ByteReader(util::ByteSpan());
  }

  util::ByteReader in_;
  const std::shared_ptr<const void>& keepalive_;
  std::string error_;
};

// Message names for decode errors, indexed by tag - 1.
constexpr std::string_view kMsgNames[] = {
    "AssignIdentity", "IdentityAck",     "Infer",       "InferResult",
    "Shutdown",       "SetupRoutes",     "RoutesAck",   "StageData",
    "Provision",      "ProvisionResult", "AttestQuery", "AttestReply",
    "SessionSubmit",  "SessionReply",
};
static_assert(std::size(kMsgNames) ==
              static_cast<size_t>(MsgType::kSessionReply));
}  // namespace

template <class M>
size_t EncodedSize(const M& msg) {
  Sizer sizer;
  sizer(msg);
  return sizer.pos;
}

template <class M>
void EncodeInto(const M& msg, util::Bytes& out) {
  Writer writer(out);
  util::AppendU8(out, static_cast<uint8_t>(M::kType));
  writer(msg);
}

template <class M>
util::Result<M> Decode(util::ByteSpan frame,
                       const std::shared_ptr<const void>& keepalive) {
  constexpr auto kTag = static_cast<uint8_t>(M::kType);
  const std::string_view name = kMsgNames[kTag - 1];
  if (frame.empty() || frame[0] != kTag) {
    return util::InvalidArgument("not a " + std::string(name) + " frame");
  }
  M msg;
  Reader reader(frame.subspan(1), keepalive);
  reader(msg);
  MVTEE_RETURN_IF_ERROR(reader.Finish(name));
  return msg;
}

// The wire messages: one codec instantiation per tagged type.
#define MVTEE_MESSAGE_CODEC(M)                                      \
  template size_t EncodedSize(const M&);                            \
  template void EncodeInto(const M&, util::Bytes&);                 \
  template util::Result<M> Decode<M>(util::ByteSpan,                \
                                     const std::shared_ptr<const void>&)
MVTEE_MESSAGE_CODEC(AssignIdentityMsg);
MVTEE_MESSAGE_CODEC(IdentityAckMsg);
MVTEE_MESSAGE_CODEC(InferMsg);
MVTEE_MESSAGE_CODEC(InferResultMsg);
MVTEE_MESSAGE_CODEC(ShutdownMsg);
MVTEE_MESSAGE_CODEC(SetupRoutesMsg);
MVTEE_MESSAGE_CODEC(RoutesAckMsg);
MVTEE_MESSAGE_CODEC(StageDataMsg);
MVTEE_MESSAGE_CODEC(ProvisionMsg);
MVTEE_MESSAGE_CODEC(ProvisionResultMsg);
MVTEE_MESSAGE_CODEC(AttestQueryMsg);
MVTEE_MESSAGE_CODEC(AttestReplyMsg);
MVTEE_MESSAGE_CODEC(SessionSubmitMsg);
MVTEE_MESSAGE_CODEC(SessionReplyMsg);
#undef MVTEE_MESSAGE_CODEC

util::Result<MsgType> PeekType(util::ByteSpan frame) {
  if (frame.empty()) return util::InvalidArgument("empty frame");
  uint8_t tag = frame[0];
  if (tag < static_cast<uint8_t>(MsgType::kAssignIdentity) ||
      tag > static_cast<uint8_t>(MsgType::kSessionReply)) {
    return util::InvalidArgument("unknown message type " +
                                 std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

util::Bytes EncodeTraceContext(const obs::TraceContext& ctx) {
  util::Bytes out;
  util::AppendU64(out, ctx.trace_id);
  util::AppendU64(out, ctx.span_id);
  return out;
}

util::Result<obs::TraceContext> DecodeTraceContext(util::ByteSpan header) {
  obs::TraceContext ctx;
  if (header.empty()) return ctx;  // headerless frame: no context
  util::ByteReader reader(header);
  if (!reader.ReadU64(ctx.trace_id) || !reader.ReadU64(ctx.span_id) ||
      !reader.done()) {
    return util::InvalidArgument("malformed trace-context header");
  }
  return ctx;
}

}  // namespace mvtee::core
