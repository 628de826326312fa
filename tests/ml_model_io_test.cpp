// Tests for the wire-off byte accounting: SerializedModelBytes is the size
// of the lossless QENW kRawF64 message.

#include "qens/ml/model_io.h"

#include <gtest/gtest.h>

#include <limits>

#include "qens/common/rng.h"
#include "qens/ml/model_codec.h"

namespace qens::ml {
namespace {

SequentialModel RandomNet(uint64_t seed) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(3, 8, Activation::kRelu).ok());
  EXPECT_TRUE(m.AddLayer(8, 1, Activation::kIdentity).ok());
  Rng rng(seed);
  m.InitWeights(&rng);
  return m;
}

TEST(ModelIoTest, SerializedBytesMatchesRawWireSize) {
  SequentialModel m = RandomNet(6);
  EXPECT_EQ(SerializedModelBytes(m),
            EncodeModel(m, WireCodecKind::kRawF64)->size());
  EXPECT_GT(SerializedModelBytes(m), 0u);
}

TEST(ModelIoTest, SerializedBytesMatchesRawWireSizeOnSpecials) {
  // The byte count is closed-form from the architecture: specials and the
  // empty model price exactly like their raw encodings.
  SequentialModel m;
  ASSERT_TRUE(m.AddLayer(3, 2, Activation::kRelu).ok());
  ASSERT_TRUE(m
                  .SetParameters({std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::denorm_min(),
                                  -0.0, 0.0, 1e308, -1e-308})
                  .ok());
  EXPECT_EQ(SerializedModelBytes(m),
            EncodeModel(m, WireCodecKind::kRawF64)->size());
  SequentialModel empty;
  EXPECT_EQ(SerializedModelBytes(empty),
            EncodeModel(empty, WireCodecKind::kRawF64)->size());
}

TEST(ModelIoTest, BiggerModelSerializesBigger) {
  SequentialModel small;
  ASSERT_TRUE(small.AddLayer(1, 1, Activation::kIdentity).ok());
  SequentialModel big = RandomNet(7);
  EXPECT_GT(SerializedModelBytes(big), SerializedModelBytes(small));
}

}  // namespace
}  // namespace qens::ml
