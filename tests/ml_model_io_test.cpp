// Tests for the text model format (exact round trips, malformed input
// rejection, file IO) and the wire-off byte accounting.

#include "qens/ml/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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

TEST(ModelIoTest, RoundTripIsExact) {
  SequentialModel m = RandomNet(1);
  const std::string text = SerializeModel(m);
  auto back = DeserializeModel(text);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->SameArchitecture(m));
  // Hex-float encoding must round-trip bit-exactly.
  EXPECT_EQ(back->GetParameters(), m.GetParameters());
}

TEST(ModelIoTest, RoundTripSingleLayer) {
  SequentialModel m;
  ASSERT_TRUE(m.AddLayer(1, 1, Activation::kIdentity).ok());
  m.layer(0).weights()(0, 0) = -0.123456789012345;
  m.layer(0).bias()[0] = 3.9999999999;
  auto back = DeserializeModel(SerializeModel(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetParameters(), m.GetParameters());
}

TEST(ModelIoTest, CommentsAndBlankLinesIgnored) {
  SequentialModel m = RandomNet(2);
  std::string text = SerializeModel(m);
  text = "# a comment\n\n" + text;
  EXPECT_TRUE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeModel("not-a-model v9\nlayers 0\n").ok());
  EXPECT_FALSE(DeserializeModel("").ok());
}

TEST(ModelIoTest, RejectsMalformedLayerLine) {
  const std::string text =
      "qens-model v1\nlayers 1\nlayer 2 relu\nparams 0\n";
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsNonChainingLayers) {
  const std::string text =
      "qens-model v1\nlayers 2\nlayer 2 4 relu\nlayer 5 1 identity\n"
      "params 0\n";
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsWrongParamCount) {
  SequentialModel m = RandomNet(3);
  std::string text = SerializeModel(m);
  const size_t pos = text.find("params ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, text.find('\n', pos) - pos, "params 1");
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsTruncatedParams) {
  SequentialModel m = RandomNet(4);
  std::string text = SerializeModel(m);
  text.resize(text.size() / 2);
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, RejectsUnknownActivation) {
  const std::string text =
      "qens-model v1\nlayers 1\nlayer 1 1 swish\nparams 2\n0 0\n";
  EXPECT_FALSE(DeserializeModel(text).ok());
}

TEST(ModelIoTest, FileSaveLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "qens_model_io_test.model")
          .string();
  SequentialModel m = RandomNet(5);
  ASSERT_TRUE(SaveModel(m, path).ok());
  auto back = LoadModel(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetParameters(), m.GetParameters());
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadModel("/nonexistent/dir/model.txt").status().IsIOError());
}

TEST(ModelIoTest, RejectsTrailingGarbage) {
  SequentialModel m = RandomNet(8);
  const std::string text = SerializeModel(m);
  // Any non-whitespace after the parameter block is an error ...
  EXPECT_FALSE(DeserializeModel(text + "extra").ok());
  EXPECT_FALSE(DeserializeModel(text + "\n0.5\n").ok());
  EXPECT_FALSE(DeserializeModel(text + "# comment\n").ok());
  EXPECT_FALSE(DeserializeModel(text + text).ok());
  // ... but trailing whitespace is fine.
  EXPECT_TRUE(DeserializeModel(text + "  \n\t\n").ok());
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
  ASSERT_TRUE(m.AddLayer(3, 2, Activation::kTanh).ok());
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
