// Tests for the versioned binary wire format (ml::ModelCodec): bit-exact
// raw round-trips over random architectures/params (NaN/Inf/denormals
// included), closed-form size agreement, per-level quantization error
// bounds, top-k delta semantics, and strict decode validation (corruption,
// truncation, trailing bytes).

#include "qens/ml/model_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "qens/common/rng.h"

namespace qens::ml {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Random architecture (1-3 chained dense layers) with params drawn from a
/// wide magnitude range, salted with specials when requested.
SequentialModel RandomModel(Rng* rng, bool with_specials) {
  SequentialModel model;
  const size_t layers = 1 + rng->UniformInt(3);
  size_t in = 1 + rng->UniformInt(6);
  for (size_t l = 0; l < layers; ++l) {
    const size_t out = 1 + rng->UniformInt(6);
    const auto act = static_cast<Activation>(rng->UniformInt(4));
    EXPECT_TRUE(model.AddLayer(in, out, act).ok());
    in = out;
  }
  std::vector<double> params(model.ParameterCount());
  for (double& p : params) {
    const double mag = std::pow(10.0, rng->Uniform(-12, 12));
    p = (rng->Bernoulli(0.5) ? 1 : -1) * rng->Uniform(0, 1) * mag;
  }
  if (with_specials && !params.empty()) {
    params[rng->UniformInt(params.size())] =
        std::numeric_limits<double>::quiet_NaN();
    params[rng->UniformInt(params.size())] =
        std::numeric_limits<double>::infinity();
    params[rng->UniformInt(params.size())] =
        -std::numeric_limits<double>::infinity();
    params[rng->UniformInt(params.size())] =
        std::numeric_limits<double>::denorm_min();
    params[rng->UniformInt(params.size())] = -0.0;
  }
  EXPECT_TRUE(model.SetParameters(params).ok());
  return model;
}

TEST(ModelCodecTest, KindNamesRoundTrip) {
  for (WireCodecKind kind :
       {WireCodecKind::kRawF64, WireCodecKind::kQuant8, WireCodecKind::kQuant4,
        WireCodecKind::kQuant2, WireCodecKind::kTopK}) {
    auto parsed = ParseWireCodecKind(WireCodecKindName(kind));
    ASSERT_TRUE(parsed.ok()) << WireCodecKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseWireCodecKind("gzip").ok());
  EXPECT_EQ(WireCodecBits(WireCodecKind::kQuant8), 8);
  EXPECT_EQ(WireCodecBits(WireCodecKind::kQuant4), 4);
  EXPECT_EQ(WireCodecBits(WireCodecKind::kQuant2), 2);
  EXPECT_EQ(WireCodecBits(WireCodecKind::kRawF64), 0);
  EXPECT_FALSE(WireCodecIsLossy(WireCodecKind::kRawF64));
  EXPECT_TRUE(WireCodecIsLossy(WireCodecKind::kQuant8));
  EXPECT_TRUE(WireCodecIsLossy(WireCodecKind::kTopK));
}

TEST(ModelCodecTest, RawRoundTripIsBitExact) {
  // Property: encode -> decode reproduces every parameter bit pattern,
  // NaN / +-Inf / denormals / negative zero included, over 50 random
  // architectures.
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    SequentialModel model = RandomModel(&rng, /*with_specials=*/true);
    auto encoded = EncodeModel(model, WireCodecKind::kRawF64);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    auto decoded = DecodeModel(*encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(decoded->SameArchitecture(model));
    const std::vector<double> want = model.GetParameters();
    const std::vector<double> got = decoded->GetParameters();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(BitsOf(want[i]), BitsOf(got[i])) << "param " << i;
    }
  }
}

TEST(ModelCodecTest, ClosedFormSizeMatchesEncoderExactly) {
  // EncodedModelBytes must equal Encode*(...).size() for every codec and
  // architecture — the wire tests' exact byte pins depend on it.
  Rng rng(202);
  for (int trial = 0; trial < 30; ++trial) {
    SequentialModel model = RandomModel(&rng, trial % 2 == 0);
    SequentialModel reference = model.Clone();
    for (WireCodecKind kind :
         {WireCodecKind::kRawF64, WireCodecKind::kQuant8,
          WireCodecKind::kQuant4, WireCodecKind::kQuant2}) {
      auto absolute = EncodeModel(model, kind);
      ASSERT_TRUE(absolute.ok());
      EXPECT_EQ(absolute->size(), EncodedModelBytes(model, kind))
          << WireCodecKindName(kind);
      auto delta = EncodeModelDelta(model, reference, kind);
      ASSERT_TRUE(delta.ok());
      EXPECT_EQ(delta->size(), EncodedModelBytes(model, kind));
    }
    for (double fraction : {0.01, 0.1, 0.5, 1.0}) {
      auto delta =
          EncodeModelDelta(model, reference, WireCodecKind::kTopK, fraction);
      ASSERT_TRUE(delta.ok());
      EXPECT_EQ(delta->size(),
                EncodedModelBytes(model, WireCodecKind::kTopK, fraction));
    }
  }
}

TEST(ModelCodecTest, QuantizedErrorWithinPerLevelBound) {
  // Per-tensor symmetric quantization: the worst-case absolute error on a
  // finite value is half a step, step = max_abs / (2^(b-1) - 1).
  Rng rng(303);
  for (WireCodecKind kind : {WireCodecKind::kQuant8, WireCodecKind::kQuant4,
                             WireCodecKind::kQuant2}) {
    const int qmax = (1 << (WireCodecBits(kind) - 1)) - 1;
    for (int trial = 0; trial < 20; ++trial) {
      SequentialModel model;
      ASSERT_TRUE(model.AddLayer(4, 3, Activation::kRelu).ok());
      ASSERT_TRUE(model.AddLayer(3, 1, Activation::kIdentity).ok());
      std::vector<double> params(model.ParameterCount());
      for (double& p : params) p = rng.Uniform(-5, 5);
      ASSERT_TRUE(model.SetParameters(params).ok());
      auto decoded = DecodeModel(*EncodeModel(model, kind));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      // Bound per tensor: weights(0), bias(0), weights(1), bias(1).
      const std::vector<double> got = decoded->GetParameters();
      const size_t tensor_sizes[] = {12, 3, 3, 1};
      size_t offset = 0;
      for (const size_t count : tensor_sizes) {
        double max_abs = 0;
        for (size_t i = 0; i < count; ++i) {
          max_abs = std::max(max_abs, std::fabs(params[offset + i]));
        }
        const double step = max_abs / qmax;
        for (size_t i = 0; i < count; ++i) {
          EXPECT_LE(std::fabs(got[offset + i] - params[offset + i]),
                    step * 0.5000001)
              << WireCodecKindName(kind) << " offset " << offset + i;
        }
        offset += count;
      }
    }
  }
}

TEST(ModelCodecTest, QuantizedDeltaMasksNonFiniteToReference) {
  // A quantized wire cannot transmit NaN/Inf: non-finite delta coordinates
  // encode as slot 0 and decode to the reference value exactly.
  SequentialModel reference;
  ASSERT_TRUE(reference.AddLayer(2, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(reference.SetParameters({1.0, 2.0, 3.0}).ok());
  SequentialModel model = reference.Clone();
  ASSERT_TRUE(model
                  .SetParameters({std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(), 3.5})
                  .ok());
  auto encoded = EncodeModelDelta(model, reference, WireCodecKind::kQuant8);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeModelDelta(*encoded, reference);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::vector<double> got = decoded->GetParameters();
  EXPECT_DOUBLE_EQ(got[0], 1.0);  // NaN delta -> reference.
  EXPECT_DOUBLE_EQ(got[1], 2.0);  // Inf delta -> reference.
  EXPECT_NEAR(got[2], 3.5, 0.5 / 127 + 1e-12);
}

TEST(ModelCodecTest, TopKKeepsLargestMagnitudeDeltas) {
  SequentialModel reference;
  ASSERT_TRUE(reference.AddLayer(4, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(reference.SetParameters({0, 0, 0, 0, 0}).ok());
  SequentialModel model = reference.Clone();
  // Deltas: |0.1| < |−3| < |7|; k=2 keeps indices 2 (7) and 4 (−3).
  ASSERT_TRUE(model.SetParameters({0.1, 0.0, 7.0, 0.0, -3.0}).ok());
  auto encoded =
      EncodeModelDelta(model, reference, WireCodecKind::kTopK, 2.0 / 5);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->size(),
            EncodedModelBytes(model, WireCodecKind::kTopK, 2.0 / 5));
  auto decoded = DecodeModelDelta(*encoded, reference);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::vector<double> got = decoded->GetParameters();
  EXPECT_DOUBLE_EQ(got[0], 0.0);  // Dropped (smallest magnitude).
  EXPECT_DOUBLE_EQ(got[1], 0.0);
  EXPECT_DOUBLE_EQ(got[2], 7.0);
  EXPECT_DOUBLE_EQ(got[3], 0.0);
  EXPECT_DOUBLE_EQ(got[4], -3.0);
}

TEST(ModelCodecTest, TopKCountClampsSanely) {
  EXPECT_EQ(TopKCount(0, 0.1), 0u);
  EXPECT_EQ(TopKCount(100, 0.1), 10u);
  EXPECT_EQ(TopKCount(100, 0.101), 11u);  // ceil.
  EXPECT_EQ(TopKCount(100, 0.0), 1u);     // Floor at one coordinate.
  EXPECT_EQ(TopKCount(100, -3.0), 1u);
  EXPECT_EQ(TopKCount(100, 1.0), 100u);
  EXPECT_EQ(TopKCount(100, 7.0), 100u);   // Ceiling at all coordinates.
}

TEST(ModelCodecTest, AbsoluteTopKRejected) {
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(2, 1, Activation::kIdentity).ok());
  EXPECT_FALSE(EncodeModel(model, WireCodecKind::kTopK).ok());
}

TEST(ModelCodecTest, DeltaAndAbsoluteDecodersAreNotInterchangeable) {
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(2, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(model.SetParameters({1, 2, 3}).ok());
  auto absolute = EncodeModel(model, WireCodecKind::kRawF64);
  ASSERT_TRUE(absolute.ok());
  auto delta = EncodeModelDelta(model, model, WireCodecKind::kRawF64);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(DecodeModel(*delta).ok());
  EXPECT_FALSE(DecodeModelDelta(*absolute, model).ok());
  // Wrong-architecture reference is rejected too.
  SequentialModel other;
  ASSERT_TRUE(other.AddLayer(3, 1, Activation::kIdentity).ok());
  EXPECT_FALSE(DecodeModelDelta(*delta, other).ok());
  EXPECT_FALSE(EncodeModelDelta(model, other, WireCodecKind::kRawF64).ok());
}

TEST(ModelCodecTest, StrictDecodeRejectsCorruption) {
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(3, 2, Activation::kTanh).ok());
  ASSERT_TRUE(model.AddLayer(2, 1, Activation::kIdentity).ok());
  auto encoded = EncodeModel(model, WireCodecKind::kRawF64);
  ASSERT_TRUE(encoded.ok());
  const std::string& good = *encoded;

  EXPECT_TRUE(DecodeModel(good).ok());
  // Empty / truncated at every prefix length.
  EXPECT_FALSE(DecodeModel("").ok());
  for (size_t len : {1u, 4u, 11u, 12u, 20u, 30u}) {
    ASSERT_LT(len, good.size());
    EXPECT_FALSE(DecodeModel(good.substr(0, len)).ok()) << "len " << len;
  }
  EXPECT_FALSE(DecodeModel(good.substr(0, good.size() - 1)).ok());
  // Trailing garbage after a well-formed payload.
  EXPECT_FALSE(DecodeModel(good + std::string(1, '\0')).ok());
  EXPECT_FALSE(DecodeModel(good + "x").ok());
  // Bad magic / version / codec byte / flags.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeModel(bad).ok());
  bad = good;
  bad[4] = 2;  // version 2
  EXPECT_FALSE(DecodeModel(bad).ok());
  bad = good;
  bad[6] = 9;  // unknown codec
  EXPECT_FALSE(DecodeModel(bad).ok());
  bad = good;
  bad[7] = char(0x80);  // unknown flag bit
  EXPECT_FALSE(DecodeModel(bad).ok());
  // Unknown activation byte (first layer spec at offset 12, act at +8).
  bad = good;
  bad[12 + 8] = 17;
  EXPECT_FALSE(DecodeModel(bad).ok());
  // Zero layer width.
  bad = good;
  bad[12] = bad[13] = bad[14] = bad[15] = 0;
  EXPECT_FALSE(DecodeModel(bad).ok());
  // Broken layer chain (second layer's in != first layer's out).
  bad = good;
  bad[12 + 9] = 5;
  EXPECT_FALSE(DecodeModel(bad).ok());
  // param_count disagreeing with the architecture (u64 after layer specs).
  bad = good;
  bad[12 + 18] = char(bad[12 + 18] + 1);
  EXPECT_FALSE(DecodeModel(bad).ok());
}

TEST(ModelCodecTest, StrictDecodeRejectsQuantPayloadCorruption) {
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(3, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(model.SetParameters({1.0, -2.0, 0.5, 0.25}).ok());
  auto encoded = EncodeModel(model, WireCodecKind::kQuant2);
  ASSERT_TRUE(encoded.ok());
  const std::string& good = *encoded;
  EXPECT_TRUE(DecodeModel(good).ok());

  // 2-bit slots live in {0,1,2}; force a 3 into the weights tensor.
  // Layout: header(12 + 9 + 8 = 29) + scale(8) + packed weights byte.
  std::string bad = good;
  bad[29 + 8] = char(0xFF);
  EXPECT_FALSE(DecodeModel(bad).ok());
  // Non-finite tensor scale.
  bad = good;
  for (int i = 0; i < 8; ++i) bad[29 + i] = char(0xFF);  // -NaN bit pattern.
  EXPECT_FALSE(DecodeModel(bad).ok());
  // Truncated mid-payload.
  EXPECT_FALSE(DecodeModel(good.substr(0, good.size() - 1)).ok());
  // Trailing byte.
  EXPECT_FALSE(DecodeModel(good + "Z").ok());
}

TEST(ModelCodecTest, StrictDecodeRejectsTopKCorruption) {
  SequentialModel reference;
  ASSERT_TRUE(reference.AddLayer(4, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(reference.SetParameters({0, 0, 0, 0, 0}).ok());
  SequentialModel model = reference.Clone();
  ASSERT_TRUE(model.SetParameters({1, 0, 2, 0, 3}).ok());
  auto encoded =
      EncodeModelDelta(model, reference, WireCodecKind::kTopK, 3.0 / 5);
  ASSERT_TRUE(encoded.ok());
  const std::string& good = *encoded;
  ASSERT_TRUE(DecodeModelDelta(good, reference).ok());

  // Header is 12 + 9 + 8 = 29; k(u64) then (u32 idx, f64 value) entries.
  // Out-of-range k.
  std::string bad = good;
  bad[29] = 99;
  EXPECT_FALSE(DecodeModelDelta(bad, reference).ok());
  // Out-of-range index.
  bad = good;
  bad[29 + 8] = 100;
  EXPECT_FALSE(DecodeModelDelta(bad, reference).ok());
  // Non-increasing indices (duplicate the first index into the second).
  bad = good;
  bad[29 + 8 + 12] = bad[29 + 8];
  EXPECT_FALSE(DecodeModelDelta(bad, reference).ok());
  EXPECT_FALSE(DecodeModelDelta(good.substr(0, good.size() - 3),
                                reference).ok());
  EXPECT_FALSE(DecodeModelDelta(good + "!", reference).ok());
}

TEST(ModelCodecTest, EmptyModelRoundTrips) {
  SequentialModel empty;
  auto encoded = EncodeModel(empty, WireCodecKind::kRawF64);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->size(), 20u);  // Bare header, no layers, no payload.
  auto decoded = DecodeModel(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_layers(), 0u);
}

TEST(ModelCodecTest, DownlinkFallsBackToRawForTopK) {
  WireOptions options;
  options.codec = WireCodecKind::kTopK;
  EXPECT_EQ(DownlinkKind(options), WireCodecKind::kRawF64);
  EXPECT_EQ(UplinkKind(options), WireCodecKind::kTopK);
  options.codec = WireCodecKind::kQuant4;
  EXPECT_EQ(DownlinkKind(options), WireCodecKind::kQuant4);
  EXPECT_EQ(UplinkKind(options), WireCodecKind::kQuant4);
}

TEST(ModelCodecTest, QuantizedAbsoluteRoundTripOverRandomModels) {
  // Lossy but never invalid: decode(encode(m)) succeeds and yields finite
  // params for finite inputs, across codecs and random architectures.
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    SequentialModel model = RandomModel(&rng, /*with_specials=*/false);
    for (WireCodecKind kind : {WireCodecKind::kQuant8, WireCodecKind::kQuant4,
                               WireCodecKind::kQuant2}) {
      auto decoded = DecodeModel(*EncodeModel(model, kind));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_TRUE(decoded->SameArchitecture(model));
      for (const double p : decoded->GetParameters()) {
        EXPECT_TRUE(std::isfinite(p));
      }
    }
  }
}

}  // namespace
}  // namespace qens::ml
