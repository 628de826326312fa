// Allocation pin of the training step. This binary replaces global operator
// new with a counting version (off except inside a CountAllocs window), then
// asserts:
//   - after one warm-up batch, Trainer::TrainBatch makes zero heap
//     allocations per batch, on the fused MSE head (LR and NN), on the
//     hidden-layer sweep and on the generic path (a ReLU output unit), with
//     both optimizers, including a smaller ragged batch;
//   - a Fit's allocation count is set-up only: a second Fit makes the
//     same number of allocations at 5 epochs as at 50, on whole matrices
//     (the sweep's per-epoch validation pass included) and on a row-id view
//     (whose batches the fused LR fit reads in place and every other fit
//     gathers into the trainer's workspace), under SGD and Adam;
//   - Predict on the hidden-layer sweep (the paper NN's shape) allocates
//     the same number of blocks for 1 row as for 1000, and at 1000 rows its
//     largest block is the 1000 x 1 prediction: no batch x H intermediate,
//     so its row tile does not grow with the batch.
//
// The nn_*_fused cases are [13 -> 64 relu] -> [64 -> 1 identity], so they
// run the fused head below the hidden layer's own passes; the nn_*_sweep
// cases take one input, so they run the hidden-layer sweep; the *_generic
// cases end in a ReLU unit, which is no linear scalar head, so they run
// ForwardInto, the MSE gradient and BackwardInto.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_largest{0};  // Largest request while counting.
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    uint64_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
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

/// Heap allocations made by `fn`; the largest request, in bytes, is left in
/// g_largest.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  g_largest.store(0, std::memory_order_relaxed);
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

enum class Opt { kSgd, kAdam };

struct StepCase {
  const char* name;
  size_t hidden;  ///< 0 = LR.
  Activation head;  ///< kRelu takes the generic path.
  Opt opt;
  size_t features = 13;
};

SequentialModel MakeModel(size_t features, size_t hidden,
                          Activation head = Activation::kIdentity) {
  SequentialModel m;
  if (hidden == 0) {
    EXPECT_TRUE(m.AddLayer(features, 1, head).ok());
  } else {
    EXPECT_TRUE(m.AddLayer(features, hidden, Activation::kRelu).ok());
    EXPECT_TRUE(m.AddLayer(hidden, 1, head).ok());
  }
  Rng rng(3);
  m.InitWeights(&rng);
  return m;
}

std::unique_ptr<Optimizer> MakeOpt(Opt opt) {
  switch (opt) {
    case Opt::kSgd:
      return std::make_unique<SgdOptimizer>(0.01);
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
  SequentialModel model = MakeModel(c.features, c.hidden, c.head);
  Trainer trainer(MakeOpt(c.opt), TrainOptions{});
  Matrix x, y, x_tail, y_tail;
  RandomData(32, c.features, 7, &x, &y);
  RandomData(5, c.features, 8, &x_tail, &y_tail);  // A ragged last batch.

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
    {"lr_mse_sgd_fused", 0, Activation::kIdentity, Opt::kSgd},
    {"nn_mse_adam_fused", 64, Activation::kIdentity, Opt::kAdam},
    {"nn_mse_sgd_fused", 64, Activation::kIdentity, Opt::kSgd},
    {"nn_mse_adam_sweep", 64, Activation::kIdentity, Opt::kAdam, 1},
    {"nn_mse_sgd_sweep", 64, Activation::kIdentity, Opt::kSgd, 1},
    {"lr_relu_sgd_generic", 0, Activation::kRelu, Opt::kSgd},
    {"nn_relu_adam_generic", 64, Activation::kRelu, Opt::kAdam},
    {"nn_relu_sgd_generic", 64, Activation::kRelu, Opt::kSgd},
};

INSTANTIATE_TEST_SUITE_P(
    Cases, TrainBatchAllocTest, ::testing::ValuesIn(kStepCases),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return std::string(info.param.name);
    });

/// Allocations of the second Fit of a trainer at `epochs` epochs.
uint64_t SecondFitAllocs(size_t features, size_t hidden, Activation head,
                         Opt opt, size_t epochs, double validation_split) {
  SequentialModel model = MakeModel(features, hidden, head);
  Matrix x, y;
  RandomData(100, features, 11, &x, &y);  // Ends in a ragged batch.
  TrainOptions options;
  options.epochs = epochs;
  options.validation_split = validation_split;
  Trainer trainer(MakeOpt(opt), options);
  EXPECT_TRUE(trainer.Fit(&model, x, y).ok());
  return CountAllocs([&] { EXPECT_TRUE(trainer.Fit(&model, x, y).ok()); });
}

TEST(TrainAllocTest, FitAllocationsDoNotGrowWithEpochs) {
  // One feature into 16 units trains and validates through the
  // hidden-layer sweep; LR under SGD through the fused LR fit; a ReLU
  // output unit through the generic path.
  for (size_t features : {size_t{1}, size_t{4}}) {
    for (size_t hidden : {size_t{0}, size_t{16}}) {
      for (Activation head : {Activation::kIdentity, Activation::kRelu}) {
        for (Opt opt : {Opt::kSgd, Opt::kAdam}) {
          for (double val : {0.0, 0.2}) {
            const uint64_t at5 =
                SecondFitAllocs(features, hidden, head, opt, 5, val);
            const uint64_t at50 =
                SecondFitAllocs(features, hidden, head, opt, 50, val);
            EXPECT_EQ(at5, at50)
                << "features=" << features << " hidden=" << hidden
                << " head=" << ActivationName(head)
                << " opt=" << static_cast<int>(opt) << " val=" << val;
            EXPECT_GT(at5, 0u);  // Per-Fit set-up (index vectors, report).
          }
        }
      }
    }
  }
}

/// Allocations of the second row-view Fit of a trainer at `epochs` epochs:
/// every third row of a 300-row store, scattered, ending in a ragged batch.
uint64_t SecondRowViewFitAllocs(size_t features, size_t hidden, Opt opt,
                                size_t epochs) {
  SequentialModel model = MakeModel(features, hidden);
  Matrix x, y;
  RandomData(300, features, 14, &x, &y);
  std::vector<size_t> rows;
  for (size_t r = 299; r >= 3; r -= 3) rows.push_back(r);
  TrainOptions options;
  options.epochs = epochs;
  options.validation_split = 0.0;
  Trainer trainer(MakeOpt(opt), options);
  EXPECT_TRUE(trainer.Fit(&model, x, y, rows).ok());
  return CountAllocs(
      [&] { EXPECT_TRUE(trainer.Fit(&model, x, y, rows).ok()); });
}

TEST(TrainAllocTest, RowViewFitMakesNoAllocationPerBatch) {
  // 99 rows in batches of 32 is 4 batches an epoch, so 45 more epochs are
  // 180 more batches: equal counts mean 0 allocations per batch. LR under
  // SGD reads its batches through the fused LR fit, the rest gather them.
  for (size_t features : {size_t{1}, size_t{4}}) {
    for (size_t hidden : {size_t{0}, size_t{16}}) {
      for (Opt opt : {Opt::kSgd, Opt::kAdam}) {
        const uint64_t at5 = SecondRowViewFitAllocs(features, hidden, opt, 5);
        const uint64_t at50 =
            SecondRowViewFitAllocs(features, hidden, opt, 50);
        EXPECT_EQ(at5, at50) << "features=" << features << " hidden=" << hidden
                             << " opt=" << static_cast<int>(opt);
      }
    }
  }
}

TEST(TrainAllocTest, SweepPredictAllocationsDoNotGrowWithRows) {
  const SequentialModel model = MakeModel(1, 64);
  Matrix x1, x1000, unused;
  RandomData(1, 1, 12, &x1, &unused);
  RandomData(1000, 1, 13, &x1000, &unused);
  const uint64_t at1 =
      CountAllocs([&] { EXPECT_TRUE(model.Predict(x1).ok()); });
  const uint64_t at1000 =
      CountAllocs([&] { EXPECT_TRUE(model.Predict(x1000).ok()); });
  EXPECT_EQ(at1, at1000);
  EXPECT_GT(at1, 0u);  // The returned predictions.
  // Layer by layer, the 1000 x 64 hidden output would be the largest.
  EXPECT_EQ(g_largest.load(std::memory_order_relaxed), 1000 * sizeof(double));
}

}  // namespace
}  // namespace qens::ml
