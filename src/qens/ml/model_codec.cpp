#include "qens/ml/model_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "qens/common/string_util.h"

namespace qens::ml {
namespace {

constexpr char kMagic[4] = {'Q', 'E', 'N', 'W'};
constexpr uint16_t kVersion = 1;
constexpr uint8_t kFlagDelta = 0x01;
constexpr uint8_t kMaxCodecByte = static_cast<uint8_t>(WireCodecKind::kTopK);
constexpr uint8_t kMaxActivationByte = static_cast<uint8_t>(Activation::kRelu);
constexpr uint32_t kMaxWireLayers = 1'000'000;

// ---------------------------------------------------------------------------
// Little-endian primitives. memcpy keeps this well-defined on any host; the
// byte order is fixed by the explicit shifts, not by the host endianness.

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU16(std::string* out, uint16_t v) {
  AppendU8(out, static_cast<uint8_t>(v & 0xff));
  AppendU8(out, static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    AppendU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    AppendU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void AppendF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Bounds-checked sequential reader over the encoded buffer.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

  Status Need(size_t n, const char* what) {
    if (remaining() < n) {
      return Status::InvalidArgument(
          StrFormat("wire decode: truncated %s (need %zu bytes, have %zu)",
                    what, n, remaining()));
    }
    return Status::OK();
  }

  uint8_t U8() { return static_cast<uint8_t>(bytes_[pos_++]); }

  uint16_t U16() {
    uint16_t v = static_cast<uint16_t>(U8());
    v = static_cast<uint16_t>(v | (static_cast<uint16_t>(U8()) << 8));
    return v;
  }

  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
    return v;
  }

  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }

  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Architecture helpers.

/// Per-layer tensor sizes in flat GetParameters() order: for each layer the
/// weights tensor (in * out), then the bias tensor (out). Quantized payloads
/// carry one scale per tensor.
std::vector<size_t> TensorSizes(const SequentialModel& model) {
  std::vector<size_t> sizes;
  sizes.reserve(2 * model.num_layers());
  for (size_t i = 0; i < model.num_layers(); ++i) {
    const auto& layer = model.layer(i);
    sizes.push_back(layer.in_features() * layer.out_features());
    sizes.push_back(layer.out_features());
  }
  return sizes;
}

size_t HeaderBytes(size_t num_layers) {
  // magic(4) + version(2) + codec(1) + flags(1) + num_layers(4)
  // + 9 per layer + param_count(8).
  return 12 + 9 * num_layers + 8;
}

size_t QuantPayloadBytes(const std::vector<size_t>& tensor_sizes, int bits) {
  size_t total = 0;
  for (const size_t count : tensor_sizes) {
    total += 8 + (count * static_cast<size_t>(bits) + 7) / 8;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Payload encoders. `values` is the flat absolute-parameter or delta vector.

void EncodeRawPayload(const std::vector<double>& values, std::string* out) {
  for (const double v : values) AppendF64(out, v);
}

void EncodeQuantPayload(const std::vector<double>& values,
                        const std::vector<size_t>& tensor_sizes, int bits,
                        std::string* out) {
  const int qmax = (1 << (bits - 1)) - 1;
  size_t offset = 0;
  for (const size_t count : tensor_sizes) {
    // Per-tensor symmetric scale from the largest finite magnitude.
    double max_abs = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const double v = values[offset + i];
      if (std::isfinite(v)) max_abs = std::max(max_abs, std::fabs(v));
    }
    const double scale = max_abs > 0.0 ? max_abs / qmax : 0.0;
    AppendF64(out, scale);
    uint8_t packed = 0;
    int filled = 0;
    for (size_t i = 0; i < count; ++i) {
      const double v = values[offset + i];
      int q = 0;
      if (scale > 0.0 && std::isfinite(v)) {
        // lround (half away from zero) is rounding-mode independent, so the
        // encoding is deterministic across platforms.
        q = static_cast<int>(std::lround(v / scale));
        q = std::clamp(q, -qmax, qmax);
      }
      const auto slot = static_cast<uint8_t>(q + qmax);
      packed = static_cast<uint8_t>(packed | (slot << filled));
      filled += bits;
      if (filled == 8) {
        AppendU8(out, packed);
        packed = 0;
        filled = 0;
      }
    }
    if (filled != 0) AppendU8(out, packed);  // Pad bits stay zero.
    offset += count;
  }
}

void EncodeTopKPayload(const std::vector<double>& values, size_t k,
                       std::string* out) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  // NaN magnitudes sort as +inf so corrupted coordinates are transmitted
  // verbatim (the leader's validator, not the wire, judges them) and the
  // comparator stays a strict weak ordering.
  auto key = [&](size_t i) {
    const double v = values[i];
    return std::isnan(v) ? std::numeric_limits<double>::infinity()
                         : std::fabs(v);
  };
  auto larger = [&](size_t a, size_t b) {
    const double ka = key(a), kb = key(b);
    if (ka != kb) return ka > kb;
    return a < b;  // Deterministic low-index tie-break.
  };
  if (k < order.size()) {
    std::nth_element(order.begin(), order.begin() + k, order.end(), larger);
    order.resize(k);
  }
  std::sort(order.begin(), order.end());  // Strictly increasing indices.
  AppendU64(out, static_cast<uint64_t>(order.size()));
  for (const size_t i : order) {
    AppendU32(out, static_cast<uint32_t>(i));
    AppendF64(out, values[i]);
  }
}

// ---------------------------------------------------------------------------
// Shared encode / decode cores.

Result<std::string> EncodeValues(const SequentialModel& model,
                                 WireCodecKind kind, double top_k_fraction,
                                 bool is_delta,
                                 const std::vector<double>& values) {
  const size_t param_count = model.ParameterCount();
  if (param_count > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "wire encode: parameter count exceeds the u32 index space");
  }
  if (model.num_layers() > kMaxWireLayers) {
    return Status::InvalidArgument("wire encode: unreasonable layer count");
  }
  if (kind == WireCodecKind::kTopK && !is_delta) {
    return Status::InvalidArgument(
        "wire encode: kTopK sparsifies deltas; absolute models must use "
        "kRawF64 or a quantized codec");
  }

  std::string out;
  out.reserve(EncodedModelBytes(model, kind, top_k_fraction));
  out.append(kMagic, sizeof(kMagic));
  AppendU16(&out, kVersion);
  AppendU8(&out, static_cast<uint8_t>(kind));
  AppendU8(&out, is_delta ? kFlagDelta : 0);
  AppendU32(&out, static_cast<uint32_t>(model.num_layers()));
  for (size_t i = 0; i < model.num_layers(); ++i) {
    const auto& layer = model.layer(i);
    AppendU32(&out, static_cast<uint32_t>(layer.in_features()));
    AppendU32(&out, static_cast<uint32_t>(layer.out_features()));
    AppendU8(&out, static_cast<uint8_t>(layer.activation()));
  }
  AppendU64(&out, static_cast<uint64_t>(param_count));

  switch (kind) {
    case WireCodecKind::kRawF64:
      EncodeRawPayload(values, &out);
      break;
    case WireCodecKind::kQuant8:
    case WireCodecKind::kQuant4:
    case WireCodecKind::kQuant2:
      EncodeQuantPayload(values, TensorSizes(model), WireCodecBits(kind),
                         &out);
      break;
    case WireCodecKind::kTopK:
      EncodeTopKPayload(values, TopKCount(param_count, top_k_fraction), &out);
      break;
  }
  return out;
}

struct DecodedMessage {
  SequentialModel architecture;       ///< Header architecture, params unset.
  std::vector<double> values;         ///< Flat absolute params or delta.
};

/// Check the `num_layers` layer specs at `in`'s position and the parameter
/// count after them, without building any layer: every width is positive,
/// every activation known, each layer chains with the one before, the
/// declared count equals the overflow-checked sum of in * out + out, and
/// the payload after it has room for that many values.
/// A delta message must also match `reference` layer for layer — a top-k
/// payload may be far smaller than its parameter count, so the reference,
/// not the byte count, bounds it. `in` is a copy: the caller's reader stays
/// put. Returns the parameter count.
Result<size_t> CheckHeader(Reader in, uint32_t num_layers, WireCodecKind kind,
                           const SequentialModel* reference) {
  if (reference != nullptr && reference->num_layers() != num_layers) {
    return Status::InvalidArgument(
        "wire decode: delta architecture does not match the reference");
  }
  size_t total = 0;
  uint32_t prev_out = 0;
  for (uint32_t i = 0; i < num_layers; ++i) {
    const uint32_t in_f = in.U32();
    const uint32_t out_f = in.U32();
    const uint8_t act_byte = in.U8();
    if (in_f == 0 || out_f == 0) {
      return Status::InvalidArgument("wire decode: non-positive layer width");
    }
    if (act_byte > kMaxActivationByte) {
      return Status::InvalidArgument(
          StrFormat("wire decode: unknown activation %u", act_byte));
    }
    if (i > 0 && in_f != prev_out) {
      return Status::InvalidArgument(StrFormat(
          "wire decode: layer %u input width %u does not chain with the "
          "previous output %u",
          i, in_f, prev_out));
    }
    if (reference != nullptr) {
      const DenseLayer& ref = reference->layer(i);
      if (ref.in_features() != in_f || ref.out_features() != out_f ||
          ref.activation() != static_cast<Activation>(act_byte)) {
        return Status::InvalidArgument(
            "wire decode: delta architecture does not match the reference");
      }
    }
    if (!AddLayerParameterCount(in_f, out_f, &total)) {
      return Status::InvalidArgument(
          "wire decode: layer widths overflow the parameter count");
    }
    prev_out = out_f;
  }
  const uint64_t param_count = in.U64();
  if (param_count != total) {
    return Status::InvalidArgument(StrFormat(
        "wire decode: param count %llu does not match the architecture (%zu)",
        static_cast<unsigned long long>(param_count), total));
  }
  // Raw values take 64 bits each, quantized ones WireCodecBits; top-k
  // deltas are bounded by the reference checked above.
  const size_t bits = kind == WireCodecKind::kRawF64
                          ? 64
                          : static_cast<size_t>(WireCodecBits(kind));
  if (kind != WireCodecKind::kTopK && total > in.remaining() * 8 / bits) {
    return Status::InvalidArgument(StrFormat(
        "wire decode: truncated payload (%zu parameters, %zu bytes left)",
        total, in.remaining()));
  }
  return total;
}

/// Decode an absolute message (`reference` null) or a delta message against
/// `reference`. The header is checked in full before any layer is built.
Result<DecodedMessage> DecodeMessage(const std::string& bytes,
                                     const SequentialModel* reference) {
  Reader in(bytes);
  QENS_RETURN_NOT_OK(in.Need(12, "header"));
  char magic[4];
  for (char& c : magic) c = static_cast<char>(in.U8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("wire decode: bad magic");
  }
  const uint16_t version = in.U16();
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("wire decode: unsupported version %u", version));
  }
  const uint8_t codec_byte = in.U8();
  if (codec_byte > kMaxCodecByte) {
    return Status::InvalidArgument(
        StrFormat("wire decode: unknown codec %u", codec_byte));
  }
  const auto kind = static_cast<WireCodecKind>(codec_byte);
  const uint8_t flags = in.U8();
  if ((flags & ~kFlagDelta) != 0) {
    return Status::InvalidArgument(
        StrFormat("wire decode: unknown flags 0x%02x", flags));
  }
  const bool is_delta = (flags & kFlagDelta) != 0;
  if (kind == WireCodecKind::kTopK && !is_delta) {
    return Status::InvalidArgument(
        "wire decode: kTopK payload without the delta flag");
  }
  if (is_delta && reference == nullptr) {
    return Status::InvalidArgument(
        "wire decode: delta payload passed to the absolute decoder (use "
        "DecodeModelDelta with the reference model)");
  }
  if (!is_delta && reference != nullptr) {
    return Status::InvalidArgument(
        "wire decode: absolute payload passed to the delta decoder");
  }
  const uint32_t num_layers = in.U32();
  if (num_layers > kMaxWireLayers) {
    return Status::InvalidArgument("wire decode: unreasonable layer count");
  }
  QENS_RETURN_NOT_OK(in.Need(9 * static_cast<size_t>(num_layers) + 8,
                             "layer specs"));
  QENS_ASSIGN_OR_RETURN(const size_t param_count,
                        CheckHeader(in, num_layers, kind, reference));
  DecodedMessage msg;
  for (uint32_t i = 0; i < num_layers; ++i) {
    const uint32_t in_f = in.U32();
    const uint32_t out_f = in.U32();
    const uint8_t act_byte = in.U8();
    QENS_RETURN_NOT_OK(msg.architecture.AddLayer(
        in_f, out_f, static_cast<Activation>(act_byte)));
  }
  in.U64();  // The parameter count, checked above.

  msg.values.assign(param_count, 0.0);
  switch (kind) {
    case WireCodecKind::kRawF64: {
      QENS_RETURN_NOT_OK(in.Need(8 * msg.values.size(), "raw payload"));
      for (double& v : msg.values) v = in.F64();
      break;
    }
    case WireCodecKind::kQuant8:
    case WireCodecKind::kQuant4:
    case WireCodecKind::kQuant2: {
      const int bits = WireCodecBits(kind);
      const int qmax = (1 << (bits - 1)) - 1;
      const uint8_t max_slot = static_cast<uint8_t>(2 * qmax);
      size_t offset = 0;
      for (const size_t count : TensorSizes(msg.architecture)) {
        QENS_RETURN_NOT_OK(in.Need(8, "tensor scale"));
        const double scale = in.F64();
        if (!std::isfinite(scale) || scale < 0.0) {
          return Status::InvalidArgument(
              "wire decode: tensor scale must be finite and non-negative");
        }
        const size_t packed_bytes =
            (count * static_cast<size_t>(bits) + 7) / 8;
        QENS_RETURN_NOT_OK(in.Need(packed_bytes, "quantized tensor"));
        uint8_t packed = 0;
        int avail = 0;
        const uint8_t mask = static_cast<uint8_t>((1u << bits) - 1);
        for (size_t i = 0; i < count; ++i) {
          if (avail == 0) {
            packed = in.U8();
            avail = 8;
          }
          const uint8_t slot = packed & mask;
          packed = static_cast<uint8_t>(packed >> bits);
          avail -= bits;
          if (slot > max_slot) {
            return Status::InvalidArgument(
                StrFormat("wire decode: quantization slot %u out of range",
                          slot));
          }
          msg.values[offset + i] = (static_cast<int>(slot) - qmax) * scale;
        }
        if (packed != 0) {
          return Status::InvalidArgument(
              "wire decode: nonzero padding bits in quantized tensor");
        }
        offset += count;
      }
      break;
    }
    case WireCodecKind::kTopK: {
      QENS_RETURN_NOT_OK(in.Need(8, "top-k count"));
      const uint64_t k = in.U64();
      if (k > param_count) {
        return Status::InvalidArgument(
            "wire decode: top-k count exceeds the parameter count");
      }
      QENS_RETURN_NOT_OK(in.Need(12 * static_cast<size_t>(k), "top-k entries"));
      uint64_t prev = 0;
      for (uint64_t i = 0; i < k; ++i) {
        const uint32_t index = in.U32();
        if (index >= param_count || (i > 0 && index <= prev)) {
          return Status::InvalidArgument(
              "wire decode: top-k indices must be strictly increasing and "
              "in range");
        }
        prev = index;
        msg.values[index] = in.F64();
      }
      break;
    }
  }

  if (!in.exhausted()) {
    return Status::InvalidArgument(StrFormat(
        "wire decode: %zu trailing bytes after payload", in.remaining()));
  }
  return msg;
}

}  // namespace

const char* WireCodecKindName(WireCodecKind kind) {
  switch (kind) {
    case WireCodecKind::kRawF64: return "raw";
    case WireCodecKind::kQuant8: return "q8";
    case WireCodecKind::kQuant4: return "q4";
    case WireCodecKind::kQuant2: return "q2";
    case WireCodecKind::kTopK: return "topk";
  }
  return "unknown";
}

Result<WireCodecKind> ParseWireCodecKind(const std::string& name) {
  const std::string t = ToLower(Trim(name));
  if (t == "raw") return WireCodecKind::kRawF64;
  if (t == "q8") return WireCodecKind::kQuant8;
  if (t == "q4") return WireCodecKind::kQuant4;
  if (t == "q2") return WireCodecKind::kQuant2;
  if (t == "topk") return WireCodecKind::kTopK;
  return Status::InvalidArgument(
      "unknown wire codec '" + name + "' (want raw|q8|q4|q2|topk)");
}

int WireCodecBits(WireCodecKind kind) {
  switch (kind) {
    case WireCodecKind::kQuant8: return 8;
    case WireCodecKind::kQuant4: return 4;
    case WireCodecKind::kQuant2: return 2;
    default: return 0;
  }
}

bool WireCodecIsLossy(WireCodecKind kind) {
  return kind != WireCodecKind::kRawF64;
}

WireCodecKind DownlinkKind(const WireOptions& options) {
  // Sparsifying an *absolute* broadcast would zero most of the model;
  // top-k only makes sense for the up-link delta.
  return options.codec == WireCodecKind::kTopK ? WireCodecKind::kRawF64
                                               : options.codec;
}

WireCodecKind UplinkKind(const WireOptions& options) { return options.codec; }

size_t TopKCount(size_t param_count, double fraction) {
  if (param_count == 0) return 0;
  if (!(fraction > 0.0)) return 1;
  if (fraction >= 1.0) return param_count;
  const auto k = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(param_count)));
  return std::clamp<size_t>(k, 1, param_count);
}

size_t EncodedModelBytes(const SequentialModel& model, WireCodecKind kind,
                         double top_k_fraction) {
  const size_t param_count = model.ParameterCount();
  size_t bytes = HeaderBytes(model.num_layers());
  switch (kind) {
    case WireCodecKind::kRawF64:
      bytes += 8 * param_count;
      break;
    case WireCodecKind::kQuant8:
    case WireCodecKind::kQuant4:
    case WireCodecKind::kQuant2:
      bytes += QuantPayloadBytes(TensorSizes(model), WireCodecBits(kind));
      break;
    case WireCodecKind::kTopK:
      bytes += 8 + 12 * TopKCount(param_count, top_k_fraction);
      break;
  }
  return bytes;
}

Result<std::string> EncodeModel(const SequentialModel& model,
                                WireCodecKind kind, double top_k_fraction) {
  return EncodeValues(model, kind, top_k_fraction, /*is_delta=*/false,
                      model.GetParameters());
}

Result<SequentialModel> DecodeModel(const std::string& bytes) {
  QENS_ASSIGN_OR_RETURN(DecodedMessage msg,
                        DecodeMessage(bytes, /*reference=*/nullptr));
  SequentialModel model = std::move(msg.architecture);
  QENS_RETURN_NOT_OK(model.SetParameters(msg.values));
  return model;
}

Result<std::string> EncodeModelDelta(const SequentialModel& model,
                                     const SequentialModel& reference,
                                     WireCodecKind kind,
                                     double top_k_fraction) {
  if (!model.SameArchitecture(reference)) {
    return Status::InvalidArgument(
        "wire encode: delta reference has a different architecture");
  }
  std::vector<double> delta = model.GetParameters();
  const std::vector<double> ref = reference.GetParameters();
  for (size_t i = 0; i < delta.size(); ++i) delta[i] -= ref[i];
  return EncodeValues(model, kind, top_k_fraction, /*is_delta=*/true, delta);
}

Result<SequentialModel> DecodeModelDelta(const std::string& bytes,
                                         const SequentialModel& reference) {
  QENS_ASSIGN_OR_RETURN(DecodedMessage msg, DecodeMessage(bytes, &reference));
  const std::vector<double> ref = reference.GetParameters();
  for (size_t i = 0; i < msg.values.size(); ++i) msg.values[i] += ref[i];
  SequentialModel model = reference.Clone();
  QENS_RETURN_NOT_OK(model.SetParameters(msg.values));
  return model;
}

}  // namespace qens::ml
