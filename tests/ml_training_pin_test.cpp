// Bit-level pin of the training math. Each case trains a small model with
// Trainer::Fit and hashes (FNV-1a, 64-bit) the bit patterns of the final
// parameters followed by every per-epoch train and validation loss. The
// fits use the trainer's coordinate-keyed shuffles, so any change to the
// shuffle draws or to the operation order of forward, loss, backward or
// optimizer update — however small — fails here.
//
// Coverage: LR and NN (ReLU, sigmoid, tanh hidden layers); SGD, SGD with
// momentum 0.9 and Adam; MSE (the fused linear head), MAE and Huber (the
// generic path); a ragged last batch, batch_size = 1, a validation
// split; a degenerate fit from all-zero weights whose targets equal the initial predictions; and
// the paper NN's shape, one input into 64 units at batch 32, which trains
// and validates through the hidden-layer sweep.
//
// Every case runs on both copies of the NN kernels (qens/ml/kernel_isa.h),
// the baseline and, where the build and CPU have it, AVX2, against the
// same hash: the copies must agree bit for bit. The nn64 hashes were
// recorded before the AVX2 copies existed.
//
// The constants assume IEEE-754 doubles without FMA contraction (the
// project's default x86-64 flags) and glibc's exp/tanh for the sigmoid and
// tanh cases. On a mismatch the failure message reports the new hash.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/kernel_isa.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"

namespace qens::ml {
namespace {

using internal::KernelIsa;

enum class Opt { kSgd, kMomentum, kAdam };

struct PinCase {
  const char* name;
  size_t hidden;  ///< 0 = LR (one 1-unit identity layer).
  Activation hidden_act;
  Opt opt;
  LossKind loss;
  size_t rows;
  size_t batch_size;
  double validation_split;
  bool degenerate;  ///< Zero weights; targets equal initial predictions.
  uint64_t expected;
  size_t features = 3;  ///< Input width; 1 takes the hidden-layer sweep.
};

constexpr size_t kEpochs = 4;

uint64_t Fnv1a(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

SequentialModel MakeModel(const PinCase& c) {
  SequentialModel m;
  if (c.hidden == 0) {
    EXPECT_TRUE(m.AddLayer(c.features, 1, Activation::kIdentity).ok());
  } else {
    EXPECT_TRUE(m.AddLayer(c.features, c.hidden, c.hidden_act).ok());
    EXPECT_TRUE(m.AddLayer(c.hidden, 1, Activation::kIdentity).ok());
  }
  if (c.degenerate) return m;  // AddLayer leaves every parameter at +0.0.
  Rng rng(17);
  m.InitWeights(&rng);
  // Non-zero biases so the bias paths carry real values from the start.
  for (size_t i = 0; i < m.num_layers(); ++i) {
    for (double& b : m.layer(i).bias()) b = rng.Uniform(-0.2, 0.2);
  }
  return m;
}

std::unique_ptr<Optimizer> MakeOpt(Opt opt, size_t hidden) {
  const double lr = hidden == 0 ? 0.03 : 0.01;
  switch (opt) {
    case Opt::kSgd:
      return std::make_unique<SgdOptimizer>(lr);
    case Opt::kMomentum:
      return std::make_unique<SgdOptimizer>(lr, 0.9);
    case Opt::kAdam:
      return std::make_unique<AdamOptimizer>(lr);
  }
  return nullptr;
}

uint64_t RunCase(const PinCase& c) {
  SequentialModel model = MakeModel(c);
  Rng rng(29);
  Matrix x(c.rows, c.features);
  Matrix y(c.rows, 1);
  for (double& v : x.data()) v = rng.Uniform(-2.0, 2.0);
  if (c.degenerate) {
    y = model.Predict(x).value();
  } else {
    for (size_t r = 0; r < c.rows; ++r) {
      double v = 1.5 * x(r, 0);
      if (c.features == 3) v = v - 0.5 * x(r, 1) + 0.25 * x(r, 2);
      y(r, 0) = v + 0.1 + rng.Uniform(-0.3, 0.3);
    }
  }

  TrainOptions options;
  options.epochs = kEpochs;
  options.batch_size = c.batch_size;
  options.validation_split = c.validation_split;
  options.seed = 5;
  options.loss = c.loss;
  Trainer trainer(MakeOpt(c.opt, c.hidden), options);
  // Two Fits on the same trainer: the second starts from carried optimizer
  // state, as the per-cluster incremental training does.
  TrainReport first = trainer.Fit(&model, x, y).value();
  TrainReport second = trainer.Fit(&model, x, y).value();

  uint64_t h = 0xcbf29ce484222325ull;
  for (double p : model.GetParameters()) h = Fnv1a(h, p);
  for (const TrainReport* r : {&first, &second}) {
    for (double l : r->train_loss) h = Fnv1a(h, l);
    for (double l : r->val_loss) h = Fnv1a(h, l);
  }
  return h;
}

// clang-format off
const PinCase kCases[] = {
  // name                      hid act                   opt             loss             rows bs  val  degen  expected
  {"lr_sgd_mse_ragged",        0,  Activation::kRelu,    Opt::kSgd,      LossKind::kMse,  45,  8,  0.0, false, 0xb64277356bc00e26ull},
  {"lr_momentum_mse",          0,  Activation::kRelu,    Opt::kMomentum, LossKind::kMse,  40,  8,  0.0, false, 0x9c6b7883282317fdull},
  {"lr_adam_mse_val",          0,  Activation::kRelu,    Opt::kAdam,     LossKind::kMse,  40,  8,  0.2, false, 0xa5a29070b4376dd2ull},
  {"lr_sgd_mae",               0,  Activation::kRelu,    Opt::kSgd,      LossKind::kMae,  45,  8,  0.0, false, 0x71bc46c879f434bcull},
  {"lr_momentum_huber",        0,  Activation::kRelu,    Opt::kMomentum, LossKind::kHuber, 45,  8,  0.0, false, 0x5dc3a454aa0a9590ull},
  {"lr_sgd_mse_batch1",        0,  Activation::kRelu,    Opt::kSgd,      LossKind::kMse,  12,  1,  0.0, false, 0xaed991d3aeef4a88ull},
  {"nn_relu_adam_mse",         6,  Activation::kRelu,    Opt::kAdam,     LossKind::kMse,  45,  8,  0.0, false, 0xfe6a1aaf63459c11ull},
  {"nn_sigmoid_sgd_mse",       6,  Activation::kSigmoid, Opt::kSgd,      LossKind::kMse,  45,  8,  0.0, false, 0x0ee52b15c26ae926ull},
  {"nn_tanh_momentum_mse",     6,  Activation::kTanh,    Opt::kMomentum, LossKind::kMse,  45,  8,  0.0, false, 0x10661f358e6b9539ull},
  {"nn_relu_adam_huber",       6,  Activation::kRelu,    Opt::kAdam,     LossKind::kHuber, 45,  8,  0.0, false, 0xb07d23c83031e0c9ull},
  {"nn_tanh_sgd_mae",          6,  Activation::kTanh,    Opt::kSgd,      LossKind::kMae,  45,  8,  0.0, false, 0x5d633c5c43b1e5e3ull},
  {"nn_tanh_adam_mse_val",     6,  Activation::kTanh,    Opt::kAdam,     LossKind::kMse,  40,  8,  0.2, false, 0xdb80ad5fad0ca29bull},
  // The paper NN's shape, [1 → 64] → [64 → 1] under MSE at batch 32: the
  // hidden-layer sweep, with ragged batches and sweep row tails.
  {"nn64_relu_adam_mse_val_sweep", 64, Activation::kRelu,    Opt::kAdam,     LossKind::kMse,  203, 32, 0.2, false, 0x93b293ab638d478dull, 1},
  {"nn64_tanh_adam_mse_sweep", 64, Activation::kTanh,    Opt::kAdam,     LossKind::kMse,  150, 32, 0.0, false, 0x3a297c97993cfdc6ull, 1},
  {"nn64_sigmoid_momentum_mse_sweep", 64, Activation::kSigmoid, Opt::kMomentum, LossKind::kMse,  150, 32, 0.0, false, 0xdfd4740467518a6eull, 1},
  {"lr_sgd_mse_degenerate",    0,  Activation::kRelu,    Opt::kSgd,      LossKind::kMse,  20,  8,  0.0, true,  0x0243cfa845185aa5ull},
  {"nn_relu_adam_mse_degenerate", 6,  Activation::kRelu,    Opt::kAdam,     LossKind::kMse,  20,  8,  0.0, true,  0x5066f76b298ff985ull},
  {"nn_sigmoid_sgd_mse_degenerate", 6,  Activation::kSigmoid, Opt::kSgd,      LossKind::kMse,  20,  8,  0.0, true,  0x5066f76b298ff985ull},
};
// clang-format on

const KernelIsa kIsas[] = {KernelIsa::kBaseline, KernelIsa::kAvx2};

const char* IsaName(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "baseline";
}

// The case's name in gtest's failure messages, in place of its bytes.
void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

/// Skips the test when `isa` cannot run here.
#define SKIP_UNLESS_RUNNABLE(isa)                                        \
  if ((isa) == KernelIsa::kAvx2 && !internal::Avx2KernelsAvailable()) { \
    GTEST_SKIP() << "no AVX2 kernels in this build or on this CPU";     \
  }

TEST(KernelIsaTest, ScopedOverrideForcesAndRestores) {
  const KernelIsa native = internal::ActiveKernelIsa();
  EXPECT_EQ(native, internal::Avx2KernelsAvailable() ? KernelIsa::kAvx2
                                                     : KernelIsa::kBaseline);
  {
    const internal::ScopedKernelIsa outer(KernelIsa::kBaseline);
    EXPECT_EQ(internal::ActiveKernelIsa(), KernelIsa::kBaseline);
    if (internal::Avx2KernelsAvailable()) {
      const internal::ScopedKernelIsa inner(KernelIsa::kAvx2);
      EXPECT_EQ(internal::ActiveKernelIsa(), KernelIsa::kAvx2);
    }
    EXPECT_EQ(internal::ActiveKernelIsa(), KernelIsa::kBaseline);
  }
  EXPECT_EQ(internal::ActiveKernelIsa(), native);
}

class TrainingPinTest
    : public ::testing::TestWithParam<std::tuple<PinCase, KernelIsa>> {};

TEST_P(TrainingPinTest, FinalParametersAndLossesAreBitPinned) {
  const auto& [c, isa] = GetParam();
  SKIP_UNLESS_RUNNABLE(isa);
  const internal::ScopedKernelIsa forced(isa);
  const uint64_t h = RunCase(c);
  EXPECT_EQ(h, c.expected) << c.name << " on " << IsaName(isa)
                           << " hashed to 0x" << std::hex << h;
}

class TrainingPinDegenerateTest : public ::testing::TestWithParam<KernelIsa> {
};

TEST_P(TrainingPinDegenerateTest, FitStaysAtTheZeroFixedPoint) {
  SKIP_UNLESS_RUNNABLE(GetParam());
  const internal::ScopedKernelIsa forced(GetParam());
  // Zero weights predict exactly the targets, so every gradient is +0.0 and
  // no optimizer may move a parameter off +0.0 (a -0.0 would change bits).
  for (const PinCase& c : kCases) {
    if (!c.degenerate) continue;
    SequentialModel model = MakeModel(c);
    Rng rng(29);
    Matrix x(c.rows, c.features);
    for (double& v : x.data()) v = rng.Uniform(-2.0, 2.0);
    const Matrix y = model.Predict(x).value();
    TrainOptions options;
    options.epochs = kEpochs;
    options.batch_size = c.batch_size;
    options.loss = c.loss;
    options.validation_split = 0.0;
    Trainer trainer(MakeOpt(c.opt, c.hidden), options);
    const TrainReport report = trainer.Fit(&model, x, y).value();
    for (double p : model.GetParameters()) {
      EXPECT_EQ(p, 0.0) << c.name;
      EXPECT_FALSE(std::signbit(p)) << c.name;
    }
    for (double l : report.train_loss) EXPECT_EQ(l, 0.0) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TrainingPinTest,
    ::testing::Combine(::testing::ValuesIn(kCases), ::testing::ValuesIn(kIsas)),
    [](const ::testing::TestParamInfo<std::tuple<PinCase, KernelIsa>>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             IsaName(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Isas, TrainingPinDegenerateTest, ::testing::ValuesIn(kIsas),
    [](const ::testing::TestParamInfo<KernelIsa>& info) {
      return std::string(IsaName(info.param));
    });

}  // namespace
}  // namespace qens::ml
