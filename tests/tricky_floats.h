// Float operands for bitwise-parity tests: every special a vector tier
// or a reordered loop must reproduce exactly.
#pragma once

#include <limits>
#include <vector>

#include "util/rng.h"

namespace mvtee {

// Signed zeros, NaN, infinities, denormals and values around the
// relu6/hardswish breakpoints (-3, 0, 3, 6), then seeded finite values.
inline std::vector<float> TrickyFloats() {
  std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -1.0f, 6.0f, -6.0f, 5.9999995f, 6.0000005f,
      3.0f, -3.0f, 2.9999998f, -2.9999998f, 1e-40f, -1e-40f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
      std::numeric_limits<float>::denorm_min()};
  util::Rng rng(51);
  while (v.size() < 103) v.push_back(rng.UniformFloat(-10, 10));
  return v;
}

}  // namespace mvtee
