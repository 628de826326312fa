#include "qens/ml/model_io.h"

#include "qens/ml/model_codec.h"

namespace qens::ml {

size_t SerializedModelBytes(const SequentialModel& model) {
  return EncodedModelBytes(model, WireCodecKind::kRawF64);
}

}  // namespace qens::ml
