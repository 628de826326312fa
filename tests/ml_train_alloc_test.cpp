// Allocation pin of the training step. This binary replaces global operator
// new with a counting version (off except inside a CountAllocs window), then
// asserts:
//   - after one warm-up batch, Trainer::TrainBatch makes zero heap
//     allocations per batch, on the fused MSE head (LR and NN) and on the
//     generic path (MAE, Huber), with every optimizer and with weight decay
//     and clipping on, including a smaller ragged batch;
//   - without early stopping, a Fit's allocation count is set-up only: a
//     second Fit makes the same number of allocations at 5 epochs as at 50.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "qens/common/rng.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Out of line so the compiler does not pair an inlined free() with a
// new-expression and warn about a mismatch that the replacement makes valid.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qens::ml {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(TrainAllocTest, CounterSeesAllocations) {
  // Guards the hook itself: a zero below must mean "no allocation", not
  // "the counter is not wired".
  const uint64_t n = CountAllocs([] {
    auto p = std::make_unique<Matrix>(4, 4);
    EXPECT_EQ(p->size(), 16u);
  });
  EXPECT_GE(n, 2u);
}

enum class Opt { kSgd, kMomentum, kAdam };

struct StepCase {
  const char* name;
  size_t hidden;  ///< 0 = LR.
  LossKind loss;
  Opt opt;
  double weight_decay;
  double clip_norm;
};

SequentialModel MakeModel(size_t features, size_t hidden) {
  SequentialModel m;
  if (hidden == 0) {
    EXPECT_TRUE(m.AddLayer(features, 1, Activation::kIdentity).ok());
  } else {
    EXPECT_TRUE(m.AddLayer(features, hidden, Activation::kRelu).ok());
    EXPECT_TRUE(m.AddLayer(hidden, 1, Activation::kIdentity).ok());
  }
  Rng rng(3);
  m.InitWeights(&rng);
  return m;
}

std::unique_ptr<Optimizer> MakeOpt(Opt opt) {
  switch (opt) {
    case Opt::kSgd:
      return std::make_unique<SgdOptimizer>(0.01);
    case Opt::kMomentum:
      return std::make_unique<SgdOptimizer>(0.01, 0.9);
    case Opt::kAdam:
      return std::make_unique<AdamOptimizer>(0.001);
  }
  return nullptr;
}

void RandomData(size_t rows, size_t features, uint64_t seed, Matrix* x,
                Matrix* y) {
  Rng rng(seed);
  *x = Matrix(rows, features);
  *y = Matrix(rows, 1);
  for (double& v : x->data()) v = rng.Uniform(-1, 1);
  for (double& v : y->data()) v = rng.Uniform(-1, 1);
}

class TrainBatchAllocTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(TrainBatchAllocTest, ZeroAllocationsPerBatchAfterWarmUp) {
  const StepCase& c = GetParam();
  constexpr size_t kFeatures = 13;
  SequentialModel model = MakeModel(kFeatures, c.hidden);
  TrainOptions options;
  options.loss = c.loss;
  options.weight_decay = c.weight_decay;
  options.clip_norm = c.clip_norm;
  Trainer trainer(MakeOpt(c.opt), options);
  Matrix x, y, x_tail, y_tail;
  RandomData(32, kFeatures, 7, &x, &y);
  RandomData(5, kFeatures, 8, &x_tail, &y_tail);  // A ragged last batch.

  ASSERT_TRUE(trainer.TrainBatch(&model, x, y).ok());  // Warm-up.
  const uint64_t allocs = CountAllocs([&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(trainer.TrainBatch(&model, x, y).ok());
      ASSERT_TRUE(trainer.TrainBatch(&model, x_tail, y_tail).ok());
    }
  });
  EXPECT_EQ(allocs, 0u) << c.name;
}

const StepCase kStepCases[] = {
    {"lr_mse_sgd_fused", 0, LossKind::kMse, Opt::kSgd, 0.0, 0.0},
    {"nn_mse_adam_fused", 64, LossKind::kMse, Opt::kAdam, 0.0, 0.0},
    {"nn_mse_momentum_wd_clip_fused", 64, LossKind::kMse, Opt::kMomentum,
     0.01, 0.5},
    {"lr_mae_sgd_generic", 0, LossKind::kMae, Opt::kSgd, 0.0, 0.0},
    {"nn_mae_adam_generic", 64, LossKind::kMae, Opt::kAdam, 0.0, 0.0},
    {"nn_huber_momentum_wd_clip_generic", 64, LossKind::kHuber,
     Opt::kMomentum, 0.01, 0.5},
};

INSTANTIATE_TEST_SUITE_P(
    Cases, TrainBatchAllocTest, ::testing::ValuesIn(kStepCases),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return std::string(info.param.name);
    });

/// Allocations of the second Fit of a trainer at `epochs` epochs.
uint64_t SecondFitAllocs(size_t hidden, LossKind loss, size_t epochs,
                         double validation_split) {
  constexpr size_t kFeatures = 4;
  SequentialModel model = MakeModel(kFeatures, hidden);
  Matrix x, y;
  RandomData(100, kFeatures, 11, &x, &y);  // Ends in a ragged batch.
  TrainOptions options;
  options.epochs = epochs;
  options.loss = loss;
  options.validation_split = validation_split;
  Trainer trainer(MakeOpt(Opt::kAdam), options);
  EXPECT_TRUE(trainer.Fit(&model, x, y).ok());
  return CountAllocs([&] { EXPECT_TRUE(trainer.Fit(&model, x, y).ok()); });
}

TEST(TrainAllocTest, FitAllocationsDoNotGrowWithEpochs) {
  for (size_t hidden : {size_t{0}, size_t{16}}) {
    for (LossKind loss : {LossKind::kMse, LossKind::kMae}) {
      for (double val : {0.0, 0.2}) {
        const uint64_t at5 = SecondFitAllocs(hidden, loss, 5, val);
        const uint64_t at50 = SecondFitAllocs(hidden, loss, 50, val);
        EXPECT_EQ(at5, at50) << "hidden=" << hidden
                             << " loss=" << LossName(loss) << " val=" << val;
        EXPECT_GT(at5, 0u);  // Per-Fit set-up (index vectors, report).
      }
    }
  }
}

}  // namespace
}  // namespace qens::ml
