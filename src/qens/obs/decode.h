#ifndef QENS_OBS_DECODE_H_
#define QENS_OBS_DECODE_H_

/// \file decode.h
/// Strict value decoders shared by the obs JSON formats (round records,
/// metrics snapshots). A count is read from its number's literal text as
/// one whole token, and a double is a number or one of the three strings
/// JsonValue::Number writes for non-finite values, so a malformed or
/// hostile file fails with InvalidArgument instead of reading as 0 or
/// wrapping around.

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <system_error>

#include "qens/common/status.h"
#include "qens/obs/json.h"

namespace qens::obs {

template <typename T>
concept Unsigned = std::unsigned_integral<T> && !std::same_as<T, bool>;

/// Decodes `token` whole: no sign, no fraction or exponent, no padding, no
/// trailing bytes, nothing past the range of `T`.
template <Unsigned T>
Status DecodeToken(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  if (error != std::errc() || stop != end) {
    return Status::InvalidArgument("is not a count: '" + token + "'");
  }
  return Status::OK();
}

/// Decodes a JSON number as a count, exactly, from its literal.
template <Unsigned T>
Status DecodeCount(const JsonValue& json, T* out) {
  if (!json.is_number()) return Status::InvalidArgument("is not a number");
  return DecodeToken(json.Literal(), out);
}

/// Decodes a JSON number, or exactly "NaN", "Infinity" or "-Infinity", as a
/// double.
inline Status DecodeDouble(const JsonValue& json, double* out) {
  using Limits = std::numeric_limits<double>;
  if (json.is_number()) {
    *out = json.AsNumber();
  } else if (json.is_string() && json.AsString() == "NaN") {
    *out = Limits::quiet_NaN();
  } else if (json.is_string() && json.AsString() == "Infinity") {
    *out = Limits::infinity();
  } else if (json.is_string() && json.AsString() == "-Infinity") {
    *out = -Limits::infinity();
  } else {
    return Status::InvalidArgument("is not a number");
  }
  return Status::OK();
}

/// Prefixes a failed decode with what was being decoded.
inline Status Named(const std::string& what, const Status& status) {
  if (status.ok()) return status;
  return Status::InvalidArgument(what + ": " + status.message());
}

}  // namespace qens::obs

#endif  // QENS_OBS_DECODE_H_
