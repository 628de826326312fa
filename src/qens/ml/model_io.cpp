#include "qens/ml/model_io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "qens/common/string_util.h"
#include "qens/ml/model_codec.h"

namespace qens::ml {
namespace {

constexpr char kMagic[] = "qens-model v1";

}  // namespace

std::string SerializeModel(const SequentialModel& model) {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "layers " << model.num_layers() << "\n";
  for (size_t i = 0; i < model.num_layers(); ++i) {
    const auto& layer = model.layer(i);
    out << "layer " << layer.in_features() << " " << layer.out_features()
        << " " << ActivationName(layer.activation()) << "\n";
  }
  const std::vector<double> params = model.GetParameters();
  out << "params " << params.size() << "\n";
  // Hex floats round-trip exactly.
  char buf[64];
  for (size_t i = 0; i < params.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%a", params[i]);
    out << buf << (i + 1 == params.size() ? "\n" : " ");
  }
  if (params.empty()) out << "\n";
  return out.str();
}

Result<SequentialModel> DeserializeModel(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  auto next_line = [&](std::string* out) -> bool {
    while (std::getline(in, line)) {
      std::string t = Trim(line);
      if (t.empty() || t[0] == '#') continue;
      *out = t;
      return true;
    }
    return false;
  };

  std::string cur;
  if (!next_line(&cur) || cur != kMagic) {
    return Status::InvalidArgument("model parse: missing magic header");
  }
  if (!next_line(&cur) || !StartsWith(cur, "layers ")) {
    return Status::InvalidArgument("model parse: missing 'layers' line");
  }
  QENS_ASSIGN_OR_RETURN(int64_t n_layers, ParseInt(cur.substr(7)));
  if (n_layers < 0 || n_layers > 1'000'000) {
    return Status::InvalidArgument("model parse: unreasonable layer count");
  }

  // The whole header is checked before any layer is built, so a hostile
  // width never sizes an allocation.
  struct LayerSpec {
    size_t in;
    size_t out;
    Activation act;
  };
  std::vector<LayerSpec> specs;
  size_t total = 0;
  for (int64_t i = 0; i < n_layers; ++i) {
    if (!next_line(&cur) || !StartsWith(cur, "layer ")) {
      return Status::InvalidArgument("model parse: missing 'layer' line");
    }
    const std::vector<std::string> parts = Split(cur, ' ');
    if (parts.size() != 4) {
      return Status::InvalidArgument("model parse: malformed layer line: '" +
                                     cur + "'");
    }
    QENS_ASSIGN_OR_RETURN(int64_t in_f, ParseInt(parts[1]));
    QENS_ASSIGN_OR_RETURN(int64_t out_f, ParseInt(parts[2]));
    if (in_f <= 0 || out_f <= 0) {
      return Status::InvalidArgument("model parse: non-positive layer width");
    }
    QENS_ASSIGN_OR_RETURN(Activation act, ParseActivation(parts[3]));
    const LayerSpec spec{static_cast<size_t>(in_f),
                         static_cast<size_t>(out_f), act};
    if (!specs.empty() && specs.back().out != spec.in) {
      return Status::InvalidArgument(StrFormat(
          "model parse: layer %lld input width %zu does not chain with the "
          "previous output %zu",
          static_cast<long long>(i), spec.in, specs.back().out));
    }
    if (!AddLayerParameterCount(spec.in, spec.out, &total)) {
      return Status::InvalidArgument(
          "model parse: layer widths overflow the parameter count");
    }
    specs.push_back(spec);
  }

  if (!next_line(&cur) || !StartsWith(cur, "params ")) {
    return Status::InvalidArgument("model parse: missing 'params' line");
  }
  QENS_ASSIGN_OR_RETURN(int64_t n_params, ParseInt(cur.substr(7)));
  if (n_params < 0 || static_cast<uint64_t>(n_params) != total) {
    return Status::InvalidArgument(
        StrFormat("model parse: params count %lld does not match model (%zu)",
                  static_cast<long long>(n_params), total));
  }
  // Every parameter is at least one character plus a separator.
  const std::streamoff pos = in.tellg();
  const size_t left = pos < 0 ? 0 : text.size() - static_cast<size_t>(pos);
  if (total > (left + 1) / 2) {
    return Status::InvalidArgument(StrFormat(
        "model parse: truncated parameter block (%zu parameters, %zu bytes "
        "left)",
        total, left));
  }

  SequentialModel model;
  for (const LayerSpec& spec : specs) {
    QENS_RETURN_NOT_OK(model.AddLayer(spec.in, spec.out, spec.act));
  }

  std::vector<double> params;
  params.reserve(static_cast<size_t>(n_params));
  // The remaining stream is whitespace-separated doubles (hex or decimal).
  std::string token;
  while (static_cast<int64_t>(params.size()) < n_params && in >> token) {
    QENS_ASSIGN_OR_RETURN(double v, ParseDouble(token));
    params.push_back(v);
  }
  if (static_cast<int64_t>(params.size()) != n_params) {
    return Status::InvalidArgument("model parse: truncated parameter block");
  }
  // A well-formed document ends after the parameter block; anything else is
  // corruption (a concatenated second model, leftover bytes, ...), not
  // something to silently ignore.
  if (in >> token) {
    return Status::InvalidArgument(
        "model parse: trailing data after parameter block: '" + token + "'");
  }
  QENS_RETURN_NOT_OK(model.SetParameters(params));
  return model;
}

Status SaveModel(const SequentialModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << SerializeModel(model);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<SequentialModel> LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return DeserializeModel(buf.str());
}

size_t SerializedModelBytes(const SequentialModel& model) {
  return EncodedModelBytes(model, WireCodecKind::kRawF64);
}

}  // namespace qens::ml
