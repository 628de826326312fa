// X7: hot-path compute microbenchmark — this PR's fused/zero-copy pipeline
// against a faithful in-bench reimplementation of the pre-PR kernels (taken
// verbatim from the repo history: zero-skipping ikj GEMM, materialized
// transposes in backward, per-call input/pre-activation copies, per-batch
// SelectRows allocations, layer-copying Predict, per-node std::async).
//
// Every comparison first asserts the two paths produce BITWISE identical
// numbers, so the speedups below are pure implementation wins, never a
// change of math. Sections:
//
//   kernels   — GEMM shapes from the paper's MLP (batch 32, 13 features,
//               64 hidden units, Table III): forward X*W+b, dW = Xt*dZ,
//               dX = dZ*Wt.
//   step      — one full forward+backward training step of the MLP: the
//               naive allocating chain vs the workspace step (fused MSE
//               head, no allocation after the first batch). The paper NN
//               on one feature (1 -> 64 relu -> 1), which trains and
//               predicts through the hidden-layer sweep, is bit-checked
//               against the naive chain too, untimed.
//   round     — one 16-node federated round of local training, pre-PR
//               (std::async per node + naive compute) vs pooled + fused:
//               one ThreadPool::ParallelUnits unit per node, each writing
//               its own model slot. With 16 units on a bounded pool the
//               round is oversubscribed on any machine with fewer than 16
//               hardware threads.
//
// Speedups on a single core are pure compute-path wins; multi-core machines
// additionally overlap the pooled sections.

#include <cmath>
#include <cstdio>
#include <future>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/thread_pool.h"
#include "qens/ml/activation.h"
#include "qens/ml/loss.h"
#include "qens/ml/model_factory.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/trainer.h"
#include "qens/tensor/matrix.h"

namespace qens::bench {
namespace {

// ---------------------------------------------------------------------------
// Pre-PR kernels, reproduced from the repo history.
// ---------------------------------------------------------------------------

// The pre-PR build compiled these loops at -O2 (RelWithDebInfo); pin that
// here so the baseline stays the historical machine code even if the bench
// translation unit is ever built at a different level.
#if defined(__GNUC__) && !defined(__clang__)
#define QENS_BASELINE_OPT __attribute__((optimize("O2")))
#else
#define QENS_BASELINE_OPT
#endif

/// Pre-PR Matrix::MatMul: ikj order WITH the zero-skip branch (the branch
/// this PR removes as a NaN-masking bug; kept here so the baseline is the
/// real historical code, sparsity shortcut and all).
QENS_BASELINE_OPT Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ar = a.RowPtr(i);
    double* o = out.RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = ar[k];
      if (aik == 0.0) continue;
      const double* br = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) o[j] += aik * br[j];
    }
  }
  return out;
}

/// Pre-PR Matrix::Transposed (element-wise strided store).
QENS_BASELINE_OPT Matrix NaiveTransposed(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* src = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) out(c, r) = src[c];
  }
  return out;
}

/// Pre-PR DenseLayer forward caches: per layer, a COPY of the input batch
/// and of the pre-activation (this PR replaces both with views/scratch).
struct NaiveCache {
  std::vector<Matrix> inputs;
  std::vector<Matrix> pres;
};

/// Pre-PR model forward: fresh z/y buffers per layer, cache copies.
Matrix NaiveForward(const ml::SequentialModel& model, const Matrix& x,
                    NaiveCache* cache) {
  cache->inputs.clear();
  cache->pres.clear();
  Matrix cur = x;
  for (size_t i = 0; i < model.num_layers(); ++i) {
    const ml::DenseLayer& layer = model.layer(i);
    Matrix z = NaiveMatMul(cur, layer.weights());
    CheckOk(z.AddRowBroadcast(layer.bias()), "naive bias");
    cache->inputs.push_back(cur);
    cache->pres.push_back(z);
    Matrix y;
    ml::ApplyActivation(layer.activation(), z, &y);
    cur = y;
  }
  return cur;
}

/// Pre-PR f'(Z): a copy of Z rewritten in place, one activation per pass.
QENS_BASELINE_OPT Matrix NaiveActivationGrad(ml::Activation a,
                                             const Matrix& z) {
  Matrix out = z;
  for (double& v : out.data()) {
    switch (a) {
      case ml::Activation::kIdentity:
        v = 1.0;
        break;
      case ml::Activation::kRelu:
        v = v > 0.0 ? 1.0 : 0.0;
        break;
      case ml::Activation::kSigmoid: {
        const double s = 1.0 / (1.0 + std::exp(-v));
        v = s * (1.0 - s);
        break;
      }
      case ml::Activation::kTanh: {
        const double t = std::tanh(v);
        v = 1.0 - t * t;
        break;
      }
    }
  }
  return out;
}

/// Pre-PR model backward: materialized transposes for dW = Xt*dZ and
/// dX = dZ*Wt, allocating Hadamard for dZ. f'(Z) and the product stay two
/// passes here, so the bit check in the step section holds the one-pass
/// ApplyActivationGradProduct to them.
std::vector<ml::DenseGradients> NaiveBackward(const ml::SequentialModel& model,
                                              const Matrix& grad_out,
                                              const NaiveCache& cache) {
  std::vector<ml::DenseGradients> grads(model.num_layers());
  Matrix cur = grad_out;
  for (size_t i = model.num_layers(); i-- > 0;) {
    const ml::DenseLayer& layer = model.layer(i);
    const Matrix fprime =
        NaiveActivationGrad(layer.activation(), cache.pres[i]);
    Matrix dz = ValueOrDie(cur.Hadamard(fprime), "naive hadamard");
    grads[i].d_weights = NaiveMatMul(NaiveTransposed(cache.inputs[i]), dz);
    grads[i].d_bias = dz.ColSums();
    cur = NaiveMatMul(dz, NaiveTransposed(layer.weights()));
  }
  return grads;
}

/// Pre-PR SequentialModel::Predict forwarded through a copied DenseLayer
/// per call ("so inference is const"); the weight/bias copies are
/// reproduced here. (The historical copy also dragged the training caches
/// along; omitting that is conservative for the baseline.)
Matrix NaivePredict(const ml::SequentialModel& model, const Matrix& x) {
  Matrix cur = x;
  for (size_t i = 0; i < model.num_layers(); ++i) {
    const ml::DenseLayer& layer = model.layer(i);
    const Matrix weights_copy = layer.weights();
    const std::vector<double> bias_copy = layer.bias();
    Matrix z = NaiveMatMul(cur, weights_copy);
    CheckOk(z.AddRowBroadcast(bias_copy), "naive predict bias");
    Matrix y;
    ml::ApplyActivation(layer.activation(), z, &y);
    cur = y;
  }
  return cur;
}

/// Pre-overhaul Trainer::Fit, step for step: the trainer's SplitRng streams,
/// same multiply-shift shuffles, same batching, same optimizer — but per-batch SelectRows
/// allocations and the naive forward/backward/Predict above. With equal
/// seeds this trains to BITWISE the same parameters as Trainer::Fit, which
/// the bench asserts.
void NaiveFit(ml::SequentialModel* model, ml::Optimizer* optimizer,
              const ml::TrainOptions& options, const Matrix& x,
              const Matrix& y) {
  const SplitRng stream(options.seed);
  std::vector<size_t> order(x.rows());
  std::iota(order.begin(), order.end(), size_t{0});
  if (options.shuffle) {
    stream.Split(RngPurpose::kTrainOrderInit).ToRng().ShuffleMulShift(&order);
  }

  size_t n_val = static_cast<size_t>(options.validation_split *
                                     static_cast<double>(x.rows()));
  n_val = std::min(n_val, x.rows() - 1);
  const size_t n_train = x.rows() - n_val;
  std::vector<size_t> train_idx(
      order.begin(), order.begin() + static_cast<ptrdiff_t>(n_train));
  const std::vector<size_t> val_idx(
      order.begin() + static_cast<ptrdiff_t>(n_train), order.end());
  const Matrix x_val = ValueOrDie(x.SelectRows(val_idx), "naive x_val");
  const Matrix y_val = ValueOrDie(y.SelectRows(val_idx), "naive y_val");

  NaiveCache cache;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.shuffle) {
      stream.Split(RngPurpose::kMinibatchShuffle)
          .Split(epoch)
          .ToRng()
          .ShuffleMulShift(&train_idx);
    }
    for (size_t start = 0; start < n_train; start += options.batch_size) {
      const size_t end = std::min(start + options.batch_size, n_train);
      std::vector<size_t> batch(
          train_idx.begin() + static_cast<ptrdiff_t>(start),
          train_idx.begin() + static_cast<ptrdiff_t>(end));
      Matrix xb = ValueOrDie(x.SelectRows(batch), "naive xb");
      Matrix yb = ValueOrDie(y.SelectRows(batch), "naive yb");
      Matrix pred = NaiveForward(*model, xb, &cache);
      Matrix grad =
          ValueOrDie(ml::ComputeLossGrad(options.loss, pred, yb), "naive dL");
      std::vector<ml::DenseGradients> grads =
          NaiveBackward(*model, grad, cache);
      CheckOk(optimizer->Step(model, grads), "naive step");
    }
    if (n_val > 0) {
      Matrix pv = NaivePredict(*model, x_val);
      CheckOk(ml::ComputeLoss(options.loss, pv, y_val).status(), "naive vl");
    }
  }
}

// ---------------------------------------------------------------------------
// Bench scaffolding.
// ---------------------------------------------------------------------------

void Die(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

void RequireBitIdentical(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  if (a != b) Die(what);
}

/// 32x13 batches against a 13-feature linear target — the paper's MLP input
/// scale (Table III: 64 hidden units, batch 32).
constexpr size_t kBatch = 32;
constexpr size_t kFeatures = 13;
constexpr size_t kHidden = 64;

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng, double lo = -1.0,
                    double hi = 1.0) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->Uniform(lo, hi);
  }
  return m;
}

double Seconds(Stopwatch& watch) { return watch.ElapsedSeconds(); }

BenchRecord SpeedupRecord(const std::string& name, const std::string& section,
                          double naive_s, double fused_s, double reps) {
  BenchRecord record;
  record.name = name;
  record.labels["section"] = section;
  record.values["naive_seconds"] = naive_s;
  record.values["fused_seconds"] = fused_s;
  record.values["speedup"] = fused_s > 0 ? naive_s / fused_s : 0.0;
  record.values["reps"] = reps;
  std::printf("  %-28s naive %9.4f ms   fused %9.4f ms   speedup %5.2fx\n",
              name.c_str(), 1e3 * naive_s, 1e3 * fused_s,
              fused_s > 0 ? naive_s / fused_s : 0.0);
  return record;
}

// --- Section: kernels ------------------------------------------------------

void BenchKernels(BenchJson* json) {
  PrintHeader("X7a. GEMM kernels (paper MLP shapes: 32x13 * 13x64)");
  Rng rng(41);
  const Matrix x = RandomMatrix(kBatch, kFeatures, &rng);
  const Matrix w = RandomMatrix(kFeatures, kHidden, &rng, -0.3, 0.3);
  const Matrix dz = RandomMatrix(kBatch, kHidden, &rng);
  std::vector<double> bias(kHidden);
  for (size_t i = 0; i < kHidden; ++i) bias[i] = 0.01 * static_cast<double>(i);
  const double reps = 20000;
  double sink = 0.0;

  {  // Forward: X*W + b.
    Matrix naive_out, fused_out;
    Stopwatch naive_watch;
    for (double r = 0; r < reps; ++r) {
      naive_out = NaiveMatMul(x, w);
      CheckOk(naive_out.AddRowBroadcast(bias), "bias");
      sink += naive_out(0, 0);
    }
    const double naive_s = Seconds(naive_watch);
    Stopwatch fused_watch;
    for (double r = 0; r < reps; ++r) {
      CheckOk(x.MatMulAddBiasInto(w, bias, &fused_out), "fused bias");
      sink += fused_out(0, 0);
    }
    const double fused_s = Seconds(fused_watch);
    RequireBitIdentical(naive_out.data(), fused_out.data(), "forward differs");
    json->Add(SpeedupRecord("forward_xw_bias", "kernels", naive_s, fused_s,
                            reps));
  }
  {  // dW = Xt * dZ.
    Matrix naive_out, fused_out;
    Stopwatch naive_watch;
    for (double r = 0; r < reps; ++r) {
      naive_out = NaiveMatMul(NaiveTransposed(x), dz);
      sink += naive_out(0, 0);
    }
    const double naive_s = Seconds(naive_watch);
    Stopwatch fused_watch;
    for (double r = 0; r < reps; ++r) {
      CheckOk(x.MatMulTransposedAInto(dz, &fused_out), "fused dW");
      sink += fused_out(0, 0);
    }
    const double fused_s = Seconds(fused_watch);
    RequireBitIdentical(naive_out.data(), fused_out.data(), "dW differs");
    json->Add(SpeedupRecord("backward_dw_xt_dz", "kernels", naive_s, fused_s,
                            reps));
  }
  {  // dX = dZ * Wt.
    Matrix naive_out, fused_out;
    Stopwatch naive_watch;
    for (double r = 0; r < reps; ++r) {
      naive_out = NaiveMatMul(dz, NaiveTransposed(w));
      sink += naive_out(0, 0);
    }
    const double naive_s = Seconds(naive_watch);
    Stopwatch fused_watch;
    for (double r = 0; r < reps; ++r) {
      CheckOk(dz.MatMulTransposedBInto(w, &fused_out), "fused dX");
      sink += fused_out(0, 0);
    }
    const double fused_s = Seconds(fused_watch);
    RequireBitIdentical(naive_out.data(), fused_out.data(), "dX differs");
    json->Add(SpeedupRecord("backward_dx_dz_wt", "kernels", naive_s, fused_s,
                            reps));
  }
  if (sink == 12345.6789) std::printf("sink %f\n", sink);  // Defeat DCE.
}

// --- Section: step ---------------------------------------------------------

/// One naive step and one workspace step on the same batch must give
/// bitwise identical predictions and gradients. With 13 features the
/// workspace step runs the layer chain and the fused MSE head; with one
/// (the paper NN on its single feature) Predict and LossAndGradients run
/// the hidden-layer sweep.
void RequireStepBitIdentical(const ml::HyperParams& hp,
                             const ml::SequentialModel& naive_model,
                             const ml::SequentialModel& fused_model,
                             const Matrix& xb, const Matrix& yb,
                             ml::TrainWorkspace* ws) {
  NaiveCache cache;
  Matrix pred_naive = NaiveForward(naive_model, xb, &cache);
  Matrix grad = ValueOrDie(ml::ComputeLossGrad(hp.loss, pred_naive, yb), "dL");
  auto grads_naive = NaiveBackward(naive_model, grad, cache);
  CheckOk(fused_model.ForwardInto(xb, ws), "fwd");
  RequireBitIdentical(pred_naive.data(), ws->layers.back().out.data(),
                      "pred differs");
  RequireBitIdentical(pred_naive.data(),
                      ValueOrDie(fused_model.Predict(xb), "predict").data(),
                      "Predict differs");
  ValueOrDie(fused_model.LossAndGradients(hp.loss, xb, yb, ws), "step");
  if (grads_naive.size() != ws->grads.size()) Die("grad count");
  for (size_t i = 0; i < grads_naive.size(); ++i) {
    RequireBitIdentical(grads_naive[i].d_weights.data(),
                        ws->grads[i].d_weights.data(), "dW differs");
    RequireBitIdentical(grads_naive[i].d_bias, ws->grads[i].d_bias,
                        "db differs");
  }
}

/// Glorot leaves the biases at zero; nonzero ones make the bias adds and
/// their order count.
void PlantBiases(ml::SequentialModel* model, Rng* rng) {
  for (size_t i = 0; i < model->num_layers(); ++i) {
    for (double& b : model->layer(i).bias()) b = rng->Uniform(-0.5, 0.5);
  }
}

void BenchTrainStep(BenchJson* json) {
  PrintHeader("X7b. Dense forward+backward step (MLP 13 -> 64 relu -> 1)");
  const ml::HyperParams hp = ml::PaperHyperParams(ml::ModelKind::kNeuralNetwork);
  Rng init_rng(7);
  ml::SequentialModel fused_model =
      ValueOrDie(ml::BuildModel(hp, kFeatures, &init_rng), "model");
  Rng init_rng2(7);
  ml::SequentialModel naive_model =
      ValueOrDie(ml::BuildModel(hp, kFeatures, &init_rng2), "model");

  Rng rng(43);
  const Matrix xb = RandomMatrix(kBatch, kFeatures, &rng);
  const Matrix yb = RandomMatrix(kBatch, 1, &rng);

  // One step each way must agree bit for bit before anything is timed,
  // with the same nonzero biases in both models.
  Rng fused_bias_rng(13);
  Rng naive_bias_rng(13);
  PlantBiases(&fused_model, &fused_bias_rng);
  PlantBiases(&naive_model, &naive_bias_rng);
  ml::TrainWorkspace ws;
  RequireStepBitIdentical(hp, naive_model, fused_model, xb, yb, &ws);
  {  // The paper NN's shape, 1 -> 64 relu -> 1: untimed, checked only.
    Rng paper_rng(11);
    ml::SequentialModel paper_model =
        ValueOrDie(ml::BuildModel(hp, 1, &paper_rng), "paper model");
    PlantBiases(&paper_model, &paper_rng);
    const Matrix paper_x = RandomMatrix(kBatch, 1, &rng);
    const Matrix paper_y = RandomMatrix(kBatch, 1, &rng);
    ml::TrainWorkspace paper_ws;
    RequireStepBitIdentical(hp, paper_model, paper_model, paper_x, paper_y,
                            &paper_ws);
    if (paper_ws.sweep_tile.empty()) Die("paper NN step skipped the sweep");
  }

  NaiveCache cache;
  const double reps = 5000;
  double sink = 0.0;
  Stopwatch naive_watch;
  for (double r = 0; r < reps; ++r) {
    Matrix pred = NaiveForward(naive_model, xb, &cache);
    Matrix grad = ValueOrDie(ml::ComputeLossGrad(hp.loss, pred, yb), "dL");
    auto grads = NaiveBackward(naive_model, grad, cache);
    sink += grads[0].d_weights(0, 0);
  }
  const double naive_s = Seconds(naive_watch);
  Stopwatch fused_watch;
  for (double r = 0; r < reps; ++r) {
    sink += ValueOrDie(fused_model.LossAndGradients(hp.loss, xb, yb, &ws),
                       "step");
    sink += ws.grads[0].d_weights(0, 0);
  }
  const double fused_s = Seconds(fused_watch);
  json->Add(SpeedupRecord("train_step_mlp", "step", naive_s, fused_s, reps));
  if (sink == 12345.6789) std::printf("sink %f\n", sink);
}

// --- Section: round --------------------------------------------------------

/// One node's local-training job for the round bench.
struct NodeData {
  Matrix x;
  Matrix y;
};

void BenchFederationRound(BenchJson* json) {
  PrintHeader("X7c. Federated round: 16 oversubscribed local-training jobs");
  const size_t kNodes = 16;
  const size_t kRows = 320;
  ml::HyperParams hp = ml::PaperHyperParams(ml::ModelKind::kNeuralNetwork);
  hp.epochs = 8;
  ml::TrainOptions train_options;
  train_options.epochs = hp.epochs;
  train_options.batch_size = hp.batch_size;
  train_options.validation_split = hp.validation_split;
  train_options.loss = hp.loss;

  std::vector<NodeData> nodes(kNodes);
  for (size_t n = 0; n < kNodes; ++n) {
    Rng rng(100 + n);
    nodes[n].x = RandomMatrix(kRows, kFeatures, &rng);
    nodes[n].y = Matrix(kRows, 1);
    for (size_t r = 0; r < kRows; ++r) {
      double acc = 0.0;
      for (size_t c = 0; c < kFeatures; ++c) acc += nodes[n].x(r, c);
      nodes[n].y(r, 0) = 0.1 * acc + rng.Gaussian(0, 0.05);
    }
  }

  auto fresh_model = [&](size_t node) {
    Rng rng(500 + node);
    return ValueOrDie(ml::BuildModel(hp, kFeatures, &rng), "model");
  };

  // Pre-PR round: one std::async thread per node, naive compute path.
  auto naive_round = [&]() {
    std::vector<ml::SequentialModel> models;
    models.reserve(kNodes);
    for (size_t n = 0; n < kNodes; ++n) models.push_back(fresh_model(n));
    std::vector<std::future<void>> futures(kNodes);
    for (size_t n = 0; n < kNodes; ++n) {
      ml::SequentialModel* model = &models[n];
      const NodeData* node = &nodes[n];
      ml::TrainOptions opts = train_options;
      opts.seed = 900 + n;
      futures[n] = std::async(std::launch::async, [model, node, opts, &hp] {
        auto optimizer =
            ValueOrDie(ml::MakeOptimizer(hp.optimizer, hp.learning_rate),
                       "optimizer");
        NaiveFit(model, optimizer.get(), opts, node->x, node->y);
      });
    }
    for (size_t n = 0; n < kNodes; ++n) futures[n].get();
    return models;
  };

  // Current round: one ParallelUnits unit per node on a bounded shared
  // pool (units queue when oversubscribed), each training its own model
  // slot on the fused compute path via the real Trainer.
  auto pooled_round = [&](common::ThreadPool* pool) {
    std::vector<ml::SequentialModel> models;
    models.reserve(kNodes);
    for (size_t n = 0; n < kNodes; ++n) models.push_back(fresh_model(n));
    pool->ParallelUnits(kNodes, [&](size_t n) {
      ml::TrainOptions opts = train_options;
      opts.seed = 900 + n;
      auto optimizer = ValueOrDie(
          ml::MakeOptimizer(hp.optimizer, hp.learning_rate), "optimizer");
      ml::Trainer trainer(std::move(optimizer), opts);
      CheckOk(trainer.Fit(&models[n], nodes[n].x, nodes[n].y).status(),
              "fit");
    });
    return models;
  };

  // The caller is a participant too, so W hardware threads run W units at
  // once on a pool of W - 1 workers.
  common::ThreadPool pool(common::ThreadPool::DefaultThreadCount() - 1);

  // Correctness first: both rounds must train to bitwise equal parameters.
  {
    auto naive_models = naive_round();
    auto pooled_models = pooled_round(&pool);
    for (size_t n = 0; n < kNodes; ++n) {
      RequireBitIdentical(naive_models[n].GetParameters(),
                          pooled_models[n].GetParameters(),
                          "round models differ");
    }
  }

  const double reps = 3;
  Stopwatch naive_watch;
  for (double r = 0; r < reps; ++r) naive_round();
  const double naive_s = Seconds(naive_watch);
  Stopwatch pooled_watch;
  for (double r = 0; r < reps; ++r) pooled_round(&pool);
  const double pooled_s = Seconds(pooled_watch);

  BenchRecord record = SpeedupRecord("federation_round_16nodes", "round",
                                     naive_s, pooled_s, reps);
  record.values["nodes"] = static_cast<double>(kNodes);
  record.values["pool_workers"] = static_cast<double>(pool.num_threads());
  json->Add(std::move(record));
}

}  // namespace
}  // namespace qens::bench

int main(int argc, char** argv) {
  using namespace qens::bench;
  BenchJson json("bench_x7_hotpath", &argc, argv);
  PrintHeader("X7. Hot-path compute overhaul: fused kernels vs pre-PR path");
  std::printf("  hardware threads: %zu\n",
              qens::common::ThreadPool::DefaultThreadCount());
  BenchKernels(&json);
  BenchTrainStep(&json);
  BenchFederationRound(&json);
  json.WriteOrDie();
  return 0;
}
