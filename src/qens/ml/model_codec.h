#ifndef QENS_ML_MODEL_CODEC_H_
#define QENS_ML_MODEL_CODEC_H_

/// \file model_codec.h
/// Versioned binary wire format for SequentialModel exchange — the payload
/// of every model transfer a query session sends when
/// FederationOptions::wire is enabled (see docs/WIRE_FORMAT.md for the
/// byte-level spec).
///
/// Layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic "QENW"
///   4       2     version (uint16, currently 1)
///   6       1     codec kind (WireCodecKind as uint8)
///   7       1     flags (bit 0: payload is a delta against a reference)
///   8       4     num_layers (uint32)
///   12      9*L   per layer: in_features u32, out_features u32, activation u8
///   ...     8     param_count (uint64; must match the architecture)
///   ...     *     payload (codec-dependent, see below)
///
/// Payloads, in flat GetParameters() order (per layer: row-major weights,
/// then bias):
///   kRawF64   param_count x 8 bytes, IEEE-754 binary64. Bit-exact.
///   kQuantN   per tensor (per layer: weights tensor, then bias tensor):
///             scale f64, then ceil(count*N/8) bytes of N-bit unsigned
///             slots packed LSB-first. value = (slot - qmax) * scale with
///             qmax = 2^(N-1) - 1; non-finite inputs encode as slot qmax
///             (i.e. 0) and are excluded from the scale computation.
///   kTopK     k u64, then k x (index u32, value f64) sorted by strictly
///             increasing index; unlisted entries are 0.
///
/// Decoding is strict: bad magic/version/kind/flags, non-positive layer
/// widths, a broken layer chain, a param_count that disagrees with the
/// architecture, truncation, and trailing bytes are all rejected.
///
/// Every payload size is architecture-determined — EncodedModelBytes() is
/// closed-form and needs no buffer, so a query's per-tag network counters
/// can be predicted *exactly* from the architecture alone.

#include <cstddef>
#include <cstdint>
#include <string>

#include "qens/common/status.h"
#include "qens/ml/sequential_model.h"

namespace qens::ml {

/// Payload encodings of wire format v1. Values are the on-wire codec byte.
enum class WireCodecKind : uint8_t {
  kRawF64 = 0,  ///< Lossless IEEE-754 binary64 (8 bytes/param).
  kQuant8 = 1,  ///< 8-bit symmetric quantization, per-tensor scale.
  kQuant4 = 2,  ///< 4-bit symmetric quantization, per-tensor scale.
  kQuant2 = 3,  ///< 2-bit symmetric quantization, per-tensor scale.
  kTopK = 4,    ///< Top-k magnitude sparsification (delta exchange).
};

/// Canonical short name: "raw" / "q8" / "q4" / "q2" / "topk".
const char* WireCodecKindName(WireCodecKind kind);

/// Parse a canonical short name (as accepted in the [wire] INI section).
Result<WireCodecKind> ParseWireCodecKind(const std::string& name);

/// Quantization bit width (8/4/2), or 0 for non-quantized codecs.
int WireCodecBits(WireCodecKind kind);

/// True when decode(encode(m)) may differ from m. kRawF64 is bit-exact;
/// every other codec is lossy.
bool WireCodecIsLossy(WireCodecKind kind);

/// Opt-in wire configuration. With the defaults no payload bytes are formed
/// and every transfer is priced at the kRawF64 size.
struct WireOptions {
  /// Master switch. When false the codec is never invoked; byte accounting
  /// uses the kRawF64 size, so federation outputs (losses and bytes) equal
  /// those of the enabled raw codec.
  bool enabled = false;
  /// Update codec. Down-link broadcasts quantized *absolute* params (top-k
  /// falls back to raw — sparsifying an absolute model zeroes most of it);
  /// up-link sends *deltas* against the round's broadcast model.
  WireCodecKind codec = WireCodecKind::kRawF64;
  /// Fraction of params kept by kTopK, in (0, 1]. k = max(1, ceil(f * P)).
  double top_k_fraction = 0.1;
};

/// Codec actually used for the leader -> participant broadcast.
WireCodecKind DownlinkKind(const WireOptions& options);
/// Codec actually used for the participant -> leader update.
WireCodecKind UplinkKind(const WireOptions& options);

/// Number of values kTopK keeps: max(1, ceil(fraction * param_count)),
/// clamped to param_count. Zero when param_count is zero.
size_t TopKCount(size_t param_count, double fraction);

/// Closed-form encoded size in bytes — exactly Encode*(...).size() for the
/// same model architecture and codec, computed without building a buffer.
/// Architecture-determined: independent of parameter *values*.
size_t EncodedModelBytes(const SequentialModel& model, WireCodecKind kind,
                         double top_k_fraction = 0.1);

/// Encode absolute parameters. kTopK is rejected here (it only makes sense
/// for deltas; use EncodeModelDelta).
Result<std::string> EncodeModel(const SequentialModel& model,
                                WireCodecKind kind,
                                double top_k_fraction = 0.1);

/// Decode an absolute-parameter message (flags delta bit must be clear).
Result<SequentialModel> DecodeModel(const std::string& bytes);

/// Encode (model - reference) as a delta message. The reference must have
/// the same architecture; the delta bit is set in the header.
Result<std::string> EncodeModelDelta(const SequentialModel& model,
                                     const SequentialModel& reference,
                                     WireCodecKind kind,
                                     double top_k_fraction = 0.1);

/// Decode a delta message and apply it to `reference` (same architecture
/// required), returning reference + decoded delta.
Result<SequentialModel> DecodeModelDelta(const std::string& bytes,
                                         const SequentialModel& reference);

}  // namespace qens::ml

#endif  // QENS_ML_MODEL_CODEC_H_
