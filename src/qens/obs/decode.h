#ifndef QENS_OBS_DECODE_H_
#define QENS_OBS_DECODE_H_

/// \file decode.h
/// Strict value decoders shared by the obs text formats (round records,
/// metrics snapshots). A CSV cell is consumed as one whole token, and a
/// JSON count must be a whole number its destination can hold, so a
/// malformed or hostile file fails with InvalidArgument instead of reading
/// as 0 or wrapping around.

#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

#include "qens/common/status.h"
#include "qens/obs/json.h"

namespace qens::obs {

template <typename T>
concept Numeric = std::is_arithmetic_v<T> && !std::same_as<T, bool>;
template <typename T>
concept Unsigned = Numeric<T> && std::unsigned_integral<T>;

/// Decodes `token` whole: no sign on counts, no padding, no trailing bytes.
template <Numeric T>
Status DecodeToken(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  if (error != std::errc() || stop != end) {
    return Status::InvalidArgument("bad number '" + token + "'");
  }
  return Status::OK();
}

/// Decodes a JSON number as a count. The range is checked before the cast:
/// converting a double outside [0, 2^digits) to an unsigned integer is
/// undefined behaviour.
template <Unsigned T>
Status DecodeCount(const JsonValue& json, T* out) {
  if (!json.is_number()) return Status::InvalidArgument("is not a number");
  const double v = json.AsNumber();
  if (!(v >= 0.0 && v < std::ldexp(1.0, std::numeric_limits<T>::digits)) ||
      v != std::floor(v)) {
    return Status::InvalidArgument("is not a count: " + JsonNumber(v));
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

/// Prefixes a failed decode with what was being decoded.
inline Status Named(const std::string& what, const Status& status) {
  if (status.ok()) return status;
  return Status::InvalidArgument(what + ": " + status.message());
}

}  // namespace qens::obs

#endif  // QENS_OBS_DECODE_H_
