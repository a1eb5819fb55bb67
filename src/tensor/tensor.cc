#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/dataplane_stats.h"

namespace mvtee::tensor {

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ",";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.data_.begin(), t.data_.end(), value);
  return t;
}

Tensor Tensor::RandomUniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.UniformFloat(lo, hi);
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, util::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.Normal()) * stddev;
  return t;
}

float& Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) {
  MVTEE_CHECK(shape_.rank() == 4);
  EnsureOwned();
  const int64_t C = shape_.dim(1), H = shape_.dim(2), W = shape_.dim(3);
  return data_[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
}

float Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
  MVTEE_CHECK(shape_.rank() == 4);
  const int64_t C = shape_.dim(1), H = shape_.dim(2), W = shape_.dim(3);
  return data()[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
}

float& Tensor::at2(int64_t r, int64_t c) {
  MVTEE_CHECK(shape_.rank() == 2);
  EnsureOwned();
  return data_[static_cast<size_t>(r * shape_.dim(1) + c)];
}

float Tensor::at2(int64_t r, int64_t c) const {
  MVTEE_CHECK(shape_.rank() == 2);
  return data()[static_cast<size_t>(r * shape_.dim(1) + c)];
}

void Tensor::EnsureOwned() {
  if (view_ == nullptr) return;
  data_.assign(view_, view_ + view_size_);
  util::CountDataPlaneCopy(view_size_ * sizeof(float));
  view_ = nullptr;
  view_size_ = 0;
  keepalive_.reset();
}

Tensor Tensor::View(Shape shape, const float* data, size_t count,
                    std::shared_ptr<const void> keepalive) {
  MVTEE_CHECK(static_cast<int64_t>(count) == shape.num_elements());
  Tensor t;
  t.shape_ = std::move(shape);
  t.view_ = data;
  t.view_size_ = count;
  t.keepalive_ = std::move(keepalive);
  return t;
}

Tensor Tensor::Reshape(Tensor t, Shape new_shape) {
  MVTEE_CHECK(new_shape.num_elements() == t.num_elements());
  Tensor out;
  out.shape_ = std::move(new_shape);
  if (t.view_ != nullptr) {
    out.view_ = t.view_;
    out.view_size_ = t.view_size_;
    out.keepalive_ = std::move(t.keepalive_);
  } else {
    out.data_ = std::move(t.data_);
  }
  return out;
}

bool operator==(const Tensor& a, const Tensor& b) {
  return a.shape_ == b.shape_ && a.storage_size() == b.storage_size() &&
         std::equal(a.data(), a.data() + a.storage_size(), b.data());
}

size_t Tensor::SerializedSize() const {
  return 16 + static_cast<size_t>(shape_.rank()) * 8 + byte_size();
}

void Tensor::SerializeInto(util::Bytes& out) const {
  util::AppendU32(out, 0x4d565431);  // "MVT1"
  util::AppendU32(out, static_cast<uint32_t>(shape_.rank()));
  for (int64_t d : shape_.dims()) {
    util::AppendU64(out, static_cast<uint64_t>(d));
  }
  util::AppendU64(out, static_cast<uint64_t>(storage_size()));
  // Bulk-copy float payload (little-endian host assumed; this is an
  // intra-deployment wire format, not an archival one). This write is
  // the one unavoidable copy of the payload on the encode side.
  size_t off = out.size();
  out.resize(off + byte_size());
  if (byte_size() > 0) std::memcpy(out.data() + off, data(), byte_size());
  util::CountDataPlaneCopy(byte_size());
}

util::Bytes Tensor::Serialize() const {
  util::Bytes out;
  out.reserve(SerializedSize());
  SerializeInto(out);
  return out;
}

namespace {
// Shared header parse for Deserialize/DeserializeView; on success the
// reader is positioned at the float payload, whose size has been
// validated against the shape.
util::Result<Shape> ParseTensorHeader(util::ByteReader& reader,
                                      uint64_t& count) {
  uint32_t magic = 0, rank = 0;
  if (!reader.ReadU32(magic) || magic != 0x4d565431) {
    return util::InvalidArgument("bad tensor magic");
  }
  if (!reader.ReadU32(rank) || rank > 8) {
    return util::InvalidArgument("bad tensor rank");
  }
  // The dims are untrusted: multiply them with an overflow check here,
  // since Shape::num_elements() trusts its dims.
  std::vector<int64_t> dims(rank);
  int64_t elements = 1;
  for (auto& d : dims) {
    uint64_t v;
    if (!reader.ReadU64(v)) return util::InvalidArgument("truncated dims");
    if (v > (1ULL << 32)) return util::InvalidArgument("dim too large");
    d = static_cast<int64_t>(v);
    if (d != 0 && elements > std::numeric_limits<int64_t>::max() / d) {
      return util::InvalidArgument("element count overflows");
    }
    elements *= d;
  }
  if (!reader.ReadU64(count)) return util::InvalidArgument("truncated count");
  if (count != static_cast<uint64_t>(elements)) {
    return util::InvalidArgument("element count mismatch");
  }
  // Bound the count before scaling it, so the byte size cannot wrap.
  if (count > reader.remaining() / sizeof(float) ||
      reader.remaining() != count * sizeof(float)) {
    return util::InvalidArgument("payload size mismatch");
  }
  return Shape(std::move(dims));
}
}  // namespace

util::Result<Tensor> Tensor::Deserialize(util::ByteSpan data) {
  util::ByteReader reader(data);
  uint64_t count = 0;
  MVTEE_ASSIGN_OR_RETURN(Shape shape, ParseTensorHeader(reader, count));
  std::vector<float> values(count);
  if (count > 0) {
    std::memcpy(values.data(), data.data() + reader.position(),
                count * sizeof(float));
  }
  util::CountDataPlaneCopy(count * sizeof(float));
  return Tensor(std::move(shape), std::move(values));
}

util::Result<Tensor> Tensor::DeserializeView(
    util::ByteSpan data, std::shared_ptr<const void> keepalive) {
  util::ByteReader reader(data);
  uint64_t count = 0;
  MVTEE_ASSIGN_OR_RETURN(Shape shape, ParseTensorHeader(reader, count));
  const uint8_t* payload = data.data() + reader.position();
  if (keepalive != nullptr &&
      reinterpret_cast<uintptr_t>(payload) % alignof(float) == 0) {
    return View(std::move(shape), reinterpret_cast<const float*>(payload),
                count, std::move(keepalive));
  }
  // Misaligned payload (or nothing pinning the buffer): fall back to an
  // owned copy rather than forming an unaligned float view.
  std::vector<float> values(count);
  if (count > 0) std::memcpy(values.data(), payload, count * sizeof(float));
  util::CountDataPlaneCopy(count * sizeof(float));
  return Tensor(std::move(shape), std::move(values));
}

double CosineSimilarity(const Tensor& a, const Tensor& b) {
  MVTEE_CHECK(a.shape() == b.shape());
  double dot = 0, na = 0, nb = 0;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    double x = a.at(i), y = b.at(i);
    dot += x * y;
    na += x * x;
    nb += y * y;
  }
  if (na == 0 && nb == 0) return 1.0;
  if (na == 0 || nb == 0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double MeanSquaredError(const Tensor& a, const Tensor& b) {
  MVTEE_CHECK(a.shape() == b.shape());
  if (a.num_elements() == 0) return 0.0;
  double sum = 0;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    double d = static_cast<double>(a.at(i)) - b.at(i);
    sum += d * d;
  }
  return sum / static_cast<double>(a.num_elements());
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  MVTEE_CHECK(a.shape() == b.shape());
  double max_diff = 0;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    double d = std::fabs(static_cast<double>(a.at(i)) - b.at(i));
    if (d > max_diff) max_diff = d;
  }
  return max_diff;
}

bool AllClose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    double x = a.at(i), y = b.at(i);
    if (std::isnan(x) || std::isnan(y)) return false;
    if (std::fabs(x - y) > atol + rtol * std::fabs(y)) return false;
  }
  return true;
}

bool HasNonFinite(const Tensor& t) {
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    if (!std::isfinite(t.at(i))) return true;
  }
  return false;
}

}  // namespace mvtee::tensor
