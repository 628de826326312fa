#ifndef QENS_ML_MODEL_IO_H_
#define QENS_ML_MODEL_IO_H_

/// \file model_io.h
/// Text serialization of SequentialModel, for saving a model to a file and
/// reading it back exactly (hex-float parameters). The federation's byte
/// accounting does not use it: transfers are priced by the QENW codec's
/// closed-form sizes (model_codec.h, SerializedModelBytes below).
///
/// Format (line oriented, '#'-prefixed comments ignored; anything after the
/// parameter block other than whitespace is rejected):
///   qens-model v1
///   layers <n>
///   layer <in> <out> <activation>      (n times)
///   params <count>
///   <count whitespace-separated doubles, hex-float for exactness>

#include <string>

#include "qens/common/status.h"
#include "qens/ml/sequential_model.h"

namespace qens::ml {

/// Serialize a model (architecture + parameters) to the v1 text format.
std::string SerializeModel(const SequentialModel& model);

/// Parse a model from the v1 text format. Fails on any structural error
/// (bad magic, layer chain mismatch, wrong parameter count, parse errors).
Result<SequentialModel> DeserializeModel(const std::string& text);

/// Write SerializeModel output to `path`.
Status SaveModel(const SequentialModel& model, const std::string& path);

/// Read and parse a model from `path`.
Result<SequentialModel> LoadModel(const std::string& path);

/// Size in bytes of this model on the wire when the binary codec is off:
/// the lossless QENW kRawF64 message, EncodedModelBytes(model, kRawF64).
/// Closed-form from the architecture, independent of parameter values.
size_t SerializedModelBytes(const SequentialModel& model);

}  // namespace qens::ml

#endif  // QENS_ML_MODEL_IO_H_
