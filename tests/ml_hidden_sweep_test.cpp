// Bit-equality of the hidden-layer sweep. A [1 → H, act] → [H → 1, identity]
// model trains under MSE (SequentialModel::LossAndGradients) and predicts
// (SequentialModel::Predict) through one row-blocked sweep; this suite holds
// both to the generic layer-by-layer chain — ForwardInto, ComputeLoss,
// ComputeLossGradInto and BackwardInto for training, one DenseLayer::Apply
// per layer for prediction — by memcmp, so the sign of a zero and a NaN's
// payload count (with one exception, explained where it is checked).
//
// Coverage: batch rows {1, 3, 4, 5, 32, 33} (below, at and past the
// four-row blocks, with ragged tails) and 0 rows for Predict; input widths
// {1, 3, 13} (1 takes the sweep; the wider ones must keep the fused head
// and the layer-by-layer passes, and match just the same); hidden widths
// {1, 5, 64}; every activation; and NaN, +Inf, -Inf
// and -0.0 planted in the inputs, the hidden weights, the head weights and
// the targets, plus targets equal to the predictions (zero gradients).
// Malformed inputs must fail with the generic chain's status code before
// any gradient buffer is written. The bit-equality cases run on every copy
// of the sweep kernels this build and CPU can run (qens/ml/kernel_isa.h),
// and PredictInto (the trainer's validation pass) must match Predict.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/kernel_isa.h"
#include "qens/ml/loss.h"
#include "qens/ml/sequential_model.h"

namespace qens::ml {
namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  // memcmp must not see the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) && SameBits(a.data(), b.data());
}

/// SameBits, except that any two NaNs match.
bool SameBitsOrBothNaN(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const double u = a.data()[i];
    const double v = b.data()[i];
    if (std::isnan(u) && std::isnan(v)) continue;
    if (std::memcmp(&u, &v, sizeof(u)) != 0) return false;
  }
  return true;
}

/// Runs `fn` once on each kernel copy this build and CPU can run.
template <typename Fn>
void OnEveryKernelIsa(Fn&& fn) {
  using internal::KernelIsa;
  for (KernelIsa isa : {KernelIsa::kBaseline, KernelIsa::kAvx2}) {
    if (isa == KernelIsa::kAvx2 && !internal::Avx2KernelsAvailable()) continue;
    const internal::ScopedKernelIsa forced(isa);
    SCOPED_TRACE(isa == KernelIsa::kAvx2 ? "avx2 kernels"
                                         : "baseline kernels");
    fn();
  }
}

/// Where a special value is planted.
enum class Plant { kNone, kInput, kHiddenWeight, kHeadWeight, kTarget };

struct Case {
  size_t rows;
  size_t d;
  size_t units;
  Activation act;
  Plant plant;
  double special;

  std::string Name() const {
    return "rows=" + std::to_string(rows) + " d=" + std::to_string(d) +
           " H=" + std::to_string(units) + " act=" + ActivationName(act) +
           " plant=" + std::to_string(static_cast<int>(plant)) +
           " special=" + std::to_string(special);
  }
};

SequentialModel MakeModel(const Case& c, Rng* rng) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(c.d, c.units, c.act).ok());
  EXPECT_TRUE(m.AddLayer(c.units, 1, Activation::kIdentity).ok());
  m.InitWeights(rng);
  // Glorot leaves the biases at zero; nonzero ones exercise the bias adds.
  for (size_t i = 0; i < 2; ++i) {
    for (double& b : m.layer(i).bias()) b = rng->Uniform(-0.5, 0.5);
  }
  if (c.plant == Plant::kHiddenWeight) {
    m.layer(0).weights()(c.d - 1, c.units / 2) = c.special;
  }
  if (c.plant == Plant::kHeadWeight) {
    m.layer(1).weights()(c.units / 2, 0) = c.special;
  }
  return m;
}

/// dL/dW and dL/db of every layer plus the loss, from one training pass.
struct StepResult {
  double loss = 0.0;
  std::vector<DenseGradients> grads;
};

/// The generic chain: ForwardInto, ComputeLoss, ComputeLossGradInto,
/// BackwardInto.
Status GenericStep(const SequentialModel& m, const Matrix& x, const Matrix& y,
                   StepResult* out) {
  TrainWorkspace ws;
  QENS_RETURN_NOT_OK(m.ForwardInto(x, &ws));
  const Matrix& pred = ws.layers.back().out;
  QENS_ASSIGN_OR_RETURN(out->loss, ComputeLoss(LossKind::kMse, pred, y));
  Matrix dl;
  QENS_RETURN_NOT_OK(ComputeLossGradInto(LossKind::kMse, pred, y, &dl));
  QENS_RETURN_NOT_OK(m.BackwardInto(x, dl, &ws));
  out->grads = ws.grads;
  return Status::OK();
}

/// The generic prediction: each layer's Apply in turn.
Result<Matrix> GenericPredict(const SequentialModel& m, const Matrix& x) {
  QENS_ASSIGN_OR_RETURN(Matrix h, m.layer(0).Apply(x));
  return m.layer(1).Apply(h);
}

void ExpectSweepMatchesGeneric(const Case& c) {
  Rng rng(1000 * c.rows + 100 * c.d + c.units);
  const SequentialModel m = MakeModel(c, &rng);
  Matrix x(c.rows, c.d);
  Matrix y(c.rows, 1);
  for (double& v : x.data()) v = rng.Uniform(-2, 2);
  for (double& v : y.data()) v = rng.Uniform(-2, 2);
  if (c.plant == Plant::kInput) x(c.rows / 2, c.d - 1) = c.special;
  if (c.plant == Plant::kTarget) y(c.rows / 2, 0) = c.special;

  const Matrix generic_pred = GenericPredict(m, x).value();
  const Matrix sweep_pred = m.Predict(x).value();
  EXPECT_TRUE(SameBits(generic_pred, sweep_pred)) << c.Name();
  TrainWorkspace pred_ws;
  ASSERT_TRUE(m.PredictInto(x, &pred_ws).ok()) << c.Name();
  EXPECT_TRUE(SameBits(generic_pred, pred_ws.layers.back().out)) << c.Name();

  StepResult generic;
  ASSERT_TRUE(GenericStep(m, x, y, &generic).ok()) << c.Name();
  TrainWorkspace ws;
  const double sweep_loss = m.LossAndGradients(LossKind::kMse, x, y, &ws)
                                .value();
  if (c.d == 1) {
    // The sweep ran: it writes its row tile and none of the layer buffers.
    EXPECT_EQ(ws.sweep_tile.rows(), 4u) << c.Name();
    EXPECT_TRUE(ws.layers[0].pre.empty()) << c.Name();
    EXPECT_TRUE(ws.layers[1].out.empty()) << c.Name();
  } else {
    // A wider input keeps the hidden layer's own passes.
    EXPECT_TRUE(ws.sweep_tile.empty()) << c.Name();
    EXPECT_EQ(ws.layers[0].pre.rows(), c.rows) << c.Name();
  }

  EXPECT_TRUE(SameBits({generic.loss}, {sweep_loss})) << c.Name();
  ASSERT_EQ(ws.grads.size(), 2u);
  // The one place two different NaNs meet: sigmoid computes exp(-z), so a
  // NaN planted in x reaches dZ with its sign bit flipped, and the hidden
  // dW multiplies x by dZ. x86 then returns whichever NaN the instruction
  // takes as its first operand, and C++ leaves that order to the compiler
  // (both kernels write x * dZ), so only there do the NaNs just have to
  // line up; every other bit still has to match.
  const bool nans_meet = c.act == Activation::kSigmoid &&
                         c.plant == Plant::kInput && std::isnan(c.special);
  const Matrix& generic_dw = generic.grads[0].d_weights;
  const Matrix& sweep_dw = ws.grads[0].d_weights;
  EXPECT_TRUE(nans_meet ? SameBitsOrBothNaN(generic_dw, sweep_dw)
                        : SameBits(generic_dw, sweep_dw))
      << c.Name() << " layer 0 dW";
  EXPECT_TRUE(SameBits(generic.grads[1].d_weights, ws.grads[1].d_weights))
      << c.Name() << " layer 1 dW";
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(SameBits(generic.grads[i].d_bias, ws.grads[i].d_bias))
        << c.Name() << " layer " << i << " db";
  }
}

const Activation kActivations[] = {Activation::kIdentity, Activation::kRelu,
                                   Activation::kSigmoid, Activation::kTanh};

TEST(HiddenSweepTest, MatchesGenericChainBitForBit) {
  OnEveryKernelIsa([] {
    for (Activation act : kActivations) {
      for (size_t d : {size_t{1}, size_t{3}, size_t{13}}) {
        for (size_t units : {size_t{1}, size_t{5}, size_t{64}}) {
          for (size_t rows : {1, 3, 4, 5, 32, 33}) {
            ExpectSweepMatchesGeneric(
                {rows, d, units, act, Plant::kNone, 0.0});
          }
        }
      }
    }
  });
}

TEST(HiddenSweepTest, NonFiniteAndNegativeZeroPropagateAsInTheGenericChain) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  OnEveryKernelIsa([&] {
    for (Activation act : kActivations) {
      for (Plant plant : {Plant::kInput, Plant::kHiddenWeight,
                          Plant::kHeadWeight, Plant::kTarget}) {
        for (double special : {nan, inf, -inf, -0.0}) {
          for (size_t d : {size_t{1}, size_t{3}, size_t{13}}) {
            for (size_t units : {size_t{1}, size_t{5}, size_t{64}}) {
              for (size_t rows : {1, 5, 33}) {
                ExpectSweepMatchesGeneric(
                    {rows, d, units, act, plant, special});
              }
            }
          }
        }
      }
    }
  });
}

TEST(HiddenSweepTest, ExactFitGivesTheGenericSignedZeros) {
  // Targets equal to the predictions make every g = +0.0, so every
  // gradient is a signed zero (g * v is -0.0 for a negative head weight);
  // the sweep must produce the generic chain's zeros bit for bit.
  OnEveryKernelIsa([] {
    for (Activation act : kActivations) {
      for (size_t d : {size_t{1}, size_t{3}}) {
        for (size_t rows : {1, 4, 33}) {
          const Case c{rows, d, 5, act, Plant::kNone, 0.0};
          Rng rng(77 + rows + d);
          const SequentialModel m = MakeModel(c, &rng);
          Matrix x(rows, d);
          for (double& v : x.data()) v = rng.Uniform(-2, 2);
          const Matrix y = GenericPredict(m, x).value();

          StepResult generic;
          ASSERT_TRUE(GenericStep(m, x, y, &generic).ok());
          TrainWorkspace ws;
          const double loss = m.LossAndGradients(LossKind::kMse, x, y, &ws)
                                  .value();
          EXPECT_EQ(loss, 0.0) << c.Name();
          EXPECT_TRUE(SameBits({generic.loss}, {loss})) << c.Name();
          for (size_t i = 0; i < 2; ++i) {
            EXPECT_TRUE(
                SameBits(generic.grads[i].d_weights, ws.grads[i].d_weights))
                << c.Name() << " layer " << i;
            EXPECT_TRUE(SameBits(generic.grads[i].d_bias, ws.grads[i].d_bias))
                << c.Name() << " layer " << i;
          }
        }
      }
    }
  });
}

TEST(HiddenSweepTest, PredictOnZeroRows) {
  for (size_t d : {size_t{1}, size_t{3}}) {
    const Case c{0, d, 5, Activation::kRelu, Plant::kNone, 0.0};
    Rng rng(5);
    const SequentialModel m = MakeModel(c, &rng);
    const Matrix x(0, d);
    const Matrix generic = GenericPredict(m, x).value();
    const Matrix sweep = m.Predict(x).value();
    EXPECT_EQ(sweep.rows(), 0u);
    EXPECT_EQ(sweep.cols(), 1u);
    EXPECT_TRUE(SameBits(generic, sweep));
  }
}

TEST(HiddenSweepTest, MalformedInputsFailLikeTheGenericChain) {
  for (size_t d : {size_t{1}, size_t{3}}) {
    const Case c{4, d, 5, Activation::kTanh, Plant::kNone, 0.0};
    Rng rng(9);
    const SequentialModel m = MakeModel(c, &rng);
    Matrix x(4, d);
    Matrix y(4, 1);
    for (double& v : x.data()) v = rng.Uniform(-1, 1);
    for (double& v : y.data()) v = rng.Uniform(-1, 1);
    TrainWorkspace ws;
    ASSERT_TRUE(m.LossAndGradients(LossKind::kMse, x, y, &ws).ok());
    const std::vector<DenseGradients> before = ws.grads;

    struct Bad {
      const char* what;
      Matrix x;
      Matrix y;
    };
    const Bad bad[] = {
        {"x.cols", Matrix(4, d + 1), y},
        {"y.rows", x, Matrix(3, 1)},
        {"y.cols", x, Matrix(4, 2)},
        {"no rows", Matrix(0, d), Matrix(0, 1)},
    };
    for (const Bad& b : bad) {
      StepResult unused;
      const Status generic = GenericStep(m, b.x, b.y, &unused);
      const Status sweep =
          m.LossAndGradients(LossKind::kMse, b.x, b.y, &ws).status();
      ASSERT_FALSE(generic.ok()) << b.what;
      EXPECT_EQ(sweep.code(), generic.code())
          << b.what << ": " << sweep.ToString() << " vs "
          << generic.ToString();
      for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(SameBits(before[i].d_weights, ws.grads[i].d_weights))
            << b.what << " layer " << i;
        EXPECT_TRUE(SameBits(before[i].d_bias, ws.grads[i].d_bias))
            << b.what << " layer " << i;
      }
    }

    const Matrix wide(4, d + 1);
    EXPECT_EQ(m.Predict(wide).status().code(),
              GenericPredict(m, wide).status().code());
    EXPECT_FALSE(m.Predict(wide).ok());
  }
}

}  // namespace
}  // namespace qens::ml
