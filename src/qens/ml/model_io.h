#ifndef QENS_ML_MODEL_IO_H_
#define QENS_ML_MODEL_IO_H_

/// \file model_io.h
/// Wire size of a SequentialModel. QENW (model_codec.h) is the only model
/// format: the federation ships models with it and prices every transfer
/// from its closed-form sizes.

#include <cstddef>

#include "qens/ml/sequential_model.h"

namespace qens::ml {

/// Size in bytes of this model on the wire when the binary codec is off:
/// the lossless QENW kRawF64 message, EncodedModelBytes(model, kRawF64).
/// Closed-form from the architecture, independent of parameter values.
size_t SerializedModelBytes(const SequentialModel& model);

}  // namespace qens::ml

#endif  // QENS_ML_MODEL_IO_H_
