// Tests for the dense Matrix: construction, access, algebra, shape errors.

#include "qens/tensor/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace qens {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_EQ(m(0, 0), 7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
}

TEST(MatrixTest, FromFlatValid) {
  auto m = Matrix::FromFlat(2, 2, {1, 2, 3, 4});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)(1, 0), 3.0);
}

TEST(MatrixTest, FromFlatSizeMismatch) {
  EXPECT_FALSE(Matrix::FromFlat(2, 2, {1, 2, 3}).ok());
}

TEST(MatrixTest, Identity) {
  Matrix eye = Matrix::Identity(3);
  EXPECT_EQ(eye(0, 0), 1.0);
  EXPECT_EQ(eye(1, 1), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
}

TEST(MatrixTest, RowAndColCopies) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
  EXPECT_EQ(m.Col(0), (std::vector<double>{1, 3}));
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 2);
  EXPECT_TRUE(m.SetRow(0, {5, 6}).ok());
  EXPECT_EQ(m(0, 1), 6.0);
  EXPECT_TRUE(m.SetRow(5, {1, 2}).IsOutOfRange());
  EXPECT_TRUE(m.SetRow(0, {1}).IsInvalidArgument());
}

TEST(MatrixTest, SelectRows) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  auto sel = m.SelectRows({2, 0});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ((*sel)(0, 0), 5.0);
  EXPECT_EQ((*sel)(1, 0), 1.0);
  EXPECT_TRUE(m.SelectRows({7}).status().IsOutOfRange());
}

TEST(MatrixTest, SelectRowsEmptyIndexList) {
  Matrix m{{1, 2}};
  auto sel = m.SelectRows({});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->rows(), 0u);
  EXPECT_EQ(sel->cols(), 2u);
}

TEST(MatrixTest, ResizeUninitializedDroppingRowsKeepsTheLeadingRows) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  m.ResizeUninitialized(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.data(), (std::vector<double>{1, 2, 3, 4}));
}

TEST(MatrixTest, Transposed) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.Transposed(), m);
}

TEST(MatrixTest, MatMulCorrectness) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  auto c = a.MatMul(b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)(0, 0), 19.0);
  EXPECT_EQ((*c)(0, 1), 22.0);
  EXPECT_EQ((*c)(1, 0), 43.0);
  EXPECT_EQ((*c)(1, 1), 50.0);
}

TEST(MatrixTest, MatMulIdentity) {
  Matrix a{{1, 2}, {3, 4}};
  auto c = a.MatMul(Matrix::Identity(2));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, a);
}

TEST(MatrixTest, MatMulShapeMismatch) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_TRUE(a.MatMul(b).status().IsInvalidArgument());
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a{{1, 0, 2}};          // 1x3
  Matrix b{{1}, {2}, {3}};      // 3x1
  auto c = a.MatMul(b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->rows(), 1u);
  EXPECT_EQ(c->cols(), 1u);
  EXPECT_EQ((*c)(0, 0), 7.0);
}

TEST(MatrixTest, AxpyAndArithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 1}, {1, 1}};
  ASSERT_TRUE(a.Axpy(2.0, b).ok());
  EXPECT_EQ(a(0, 0), 3.0);
  auto sum = a.Add(b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ((*sum)(1, 1), 7.0);
  auto diff = a.Sub(b);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ((*diff)(0, 0), 2.0);
  auto had = a.Hadamard(b);
  ASSERT_TRUE(had.ok());
  EXPECT_EQ((*had)(0, 1), 4.0);
}

TEST(MatrixTest, ArithmeticShapeMismatch) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_FALSE(a.Add(b).ok());
  EXPECT_FALSE(a.Sub(b).ok());
  EXPECT_FALSE(a.Hadamard(b).ok());
  EXPECT_FALSE(a.Axpy(1.0, b).ok());
}

TEST(MatrixTest, ScaleAndFill) {
  Matrix m{{1, -2}};
  m.Scale(-3.0);
  EXPECT_EQ(m(0, 0), -3.0);
  EXPECT_EQ(m(0, 1), 6.0);
  m.Fill(9.0);
  EXPECT_EQ(m(0, 0), 9.0);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix m{{1, 2}, {3, 4}};
  ASSERT_TRUE(m.AddRowBroadcast({10, 20}).ok());
  EXPECT_EQ(m(0, 0), 11.0);
  EXPECT_EQ(m(1, 1), 24.0);
  EXPECT_TRUE(m.AddRowBroadcast({1}).IsInvalidArgument());
}

TEST(MatrixTest, ColSumsAndMeans) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.ColSums(), (std::vector<double>{9, 12}));
  EXPECT_EQ(m.ColMeans(), (std::vector<double>{3, 4}));
}

TEST(MatrixTest, ColMeansOfEmpty) {
  Matrix m(0, 3);
  EXPECT_EQ(m.ColMeans(), (std::vector<double>{0, 0, 0}));
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1.5, 1}};
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 1.0);
  Matrix c(2, 2);
  EXPECT_TRUE(std::isinf(a.MaxAbsDiff(c)));
}

TEST(MatrixTest, MatMulAssociativityProperty) {
  // (A B) C == A (B C) on small random-ish integers.
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{0, 1}, {1, 0}};
  Matrix c{{2, 0}, {0, 2}};
  Matrix left = a.MatMul(b).value().MatMul(c).value();
  Matrix right = a.MatMul(b.MatMul(c).value()).value();
  EXPECT_EQ(left, right);
}

// Regression: the GEMM inner loop must not skip zero multiplicands —
// IEEE 754 says 0 * NaN = NaN and 0 * inf = NaN, so a zero-skip silently
// masks non-finite values flowing through a model.
TEST(MatrixTest, MatMulPropagatesNanThroughZeroEntries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix a{{0.0, 1.0}};
  Matrix b{{nan, 0.0}, {2.0, 3.0}};
  auto c = a.MatMul(b);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(std::isnan((*c)(0, 0)));  // 0*NaN + 1*2 must be NaN.
  EXPECT_EQ((*c)(0, 1), 3.0);

  Matrix zero{{0.0}};
  Matrix infm{{inf}};
  auto zi = zero.MatMul(infm);
  ASSERT_TRUE(zi.ok());
  EXPECT_TRUE(std::isnan((*zi)(0, 0)));  // 0 * inf = NaN.
}

/// Deterministic pseudo-random matrix (LCG; no RNG dependency needed).
Matrix PseudoRandom(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      m(r, c) =
          static_cast<double>(state >> 11) / static_cast<double>(1ULL << 53) -
          0.5;
    }
  }
  return m;
}

// The fused transposed kernels must be BITWISE equal to the materialized
// compositions they replace (same per-element accumulation order), on
// shapes matching the paper's MLP (batch 32, 13 features, 64 hidden units).
TEST(MatrixTest, MatMulTransposedAMatchesMaterializedTranspose) {
  Matrix x = PseudoRandom(32, 13, 1);
  Matrix dz = PseudoRandom(32, 64, 2);
  auto fused = x.MatMulTransposedA(dz);
  auto naive = x.Transposed().MatMul(dz);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(fused->data(), naive->data());
  EXPECT_EQ(fused->rows(), 13u);
  EXPECT_EQ(fused->cols(), 64u);
  EXPECT_FALSE(x.MatMulTransposedA(PseudoRandom(31, 4, 3)).ok());
}

TEST(MatrixTest, MatMulTransposedBMatchesMaterializedTranspose) {
  Matrix dz = PseudoRandom(32, 64, 4);
  Matrix w = PseudoRandom(13, 64, 5);
  auto fused = dz.MatMulTransposedB(w);
  auto naive = dz.MatMul(w.Transposed());
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(fused->data(), naive->data());
  EXPECT_EQ(fused->rows(), 32u);
  EXPECT_EQ(fused->cols(), 13u);
  EXPECT_FALSE(dz.MatMulTransposedB(PseudoRandom(5, 63, 6)).ok());
}

TEST(MatrixTest, MatMulAddBiasMatchesComposition) {
  Matrix x = PseudoRandom(32, 13, 7);
  Matrix w = PseudoRandom(13, 64, 8);
  std::vector<double> bias(64);
  for (size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.01 * static_cast<double>(i) - 0.3;
  }
  Matrix fused;
  ASSERT_TRUE(x.MatMulAddBiasInto(w, bias, &fused).ok());
  Matrix naive = x.MatMul(w).value();
  ASSERT_TRUE(naive.AddRowBroadcast(bias).ok());
  EXPECT_EQ(fused.data(), naive.data());
  // Shape errors: bad bias width, bad inner dimension.
  EXPECT_FALSE(x.MatMulAddBiasInto(w, std::vector<double>(63), &fused).ok());
  EXPECT_FALSE(x.MatMulAddBiasInto(PseudoRandom(12, 4, 9), bias, &fused).ok());
}

TEST(MatrixTest, SelectRowsRepeatsAndReorders) {
  Matrix m = PseudoRandom(10, 4, 10);
  const std::vector<size_t> idx = {7, 0, 3, 3, 9};
  const Matrix out = m.SelectRows(idx).value();
  ASSERT_EQ(out.rows(), idx.size());
  for (size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(out.Row(i), m.Row(idx[i]));
  EXPECT_TRUE(m.SelectRows({10}).status().IsOutOfRange());
}

/// The bits of `v`, with every NaN mapped to one value: NaN-ness is part of
/// the kernels' contract, the payload is not.
uint64_t Bits(double v) {
  if (std::isnan(v)) return 0x7ff8000000000000ULL;
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// A one-column rhs takes the GEMV path, which runs four rows' dot-product
// chains at once. Every element must equal the rolled loop bit for bit —
// 0.0 plus a(i, k) * b[k] in ascending k, then the bias — at row counts
// around the four-row unroll and every depth, with NaN, +-Inf and -0.0 in
// both operands.
TEST(MatrixTest, ColumnGemvMatchesRolledLoopBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {nan, inf, -inf, -0.0, 0.0};
  const std::vector<double> bias = {-0.25};
  for (size_t rows = 1; rows <= 9; ++rows) {
    for (size_t depth = 0; depth <= 9; ++depth) {
      // Finite operands spread over magnitudes (so the summation order
      // shows in the low bits), then the same operands salted with
      // specials.
      Matrix a = PseudoRandom(rows, depth, 100 + 10 * rows + depth);
      Matrix b = PseudoRandom(depth, 1, 200 + 10 * rows + depth);
      for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] *= std::ldexp(1.0, static_cast<int>(i % 7) * 9 - 27);
      }
      for (bool salted : {false, true}) {
        if (salted) {
          for (size_t i = 0; i < a.size(); i += 3) {
            a.data()[i] = specials[(i / 3 + rows) % 5];
          }
          for (size_t i = 0; i < b.size(); i += 4) {
            b.data()[i] = specials[(i / 4 + depth) % 5];
          }
        }
        Matrix prod;
        Matrix biased;
        ASSERT_TRUE(a.MatMulInto(b, &prod).ok());
        ASSERT_TRUE(a.MatMulAddBiasInto(b, bias, &biased).ok());
        ASSERT_EQ(prod.rows(), rows);
        ASSERT_EQ(prod.cols(), 1u);
        for (size_t i = 0; i < rows; ++i) {
          double s = 0.0;
          for (size_t k = 0; k < depth; ++k) s += a(i, k) * b(k, 0);
          EXPECT_EQ(Bits(prod(i, 0)), Bits(s))
              << "rows=" << rows << " depth=" << depth << " i=" << i
              << " salted=" << salted;
          EXPECT_EQ(Bits(biased(i, 0)), Bits(s + bias[0]))
              << "rows=" << rows << " depth=" << depth << " i=" << i
              << " salted=" << salted;
        }
      }

      // 0 * NaN must reach every row's sum, whichever chain carries it.
      if (depth == 0) continue;
      Matrix zeros(rows, depth);
      Matrix nan_b(depth, 1, 1.0);
      nan_b(depth - 1, 0) = nan;
      Matrix zero_prod;
      ASSERT_TRUE(zeros.MatMulInto(nan_b, &zero_prod).ok());
      for (size_t i = 0; i < rows; ++i) {
        EXPECT_TRUE(std::isnan(zero_prod(i, 0)))
            << "rows=" << rows << " depth=" << depth << " i=" << i;
      }
    }
  }
}

TEST(MatrixTest, MatMulIntoReusesDestination) {
  Matrix a = PseudoRandom(8, 6, 14);
  Matrix b = PseudoRandom(6, 9, 15);
  Matrix out;
  ASSERT_TRUE(a.MatMulInto(b, &out).ok());
  EXPECT_EQ(out.data(), a.MatMul(b).value().data());
  const double* buffer = out.data().data();
  ASSERT_TRUE(a.MatMulInto(b, &out).ok());
  EXPECT_EQ(out.data().data(), buffer);  // No reallocation on reuse.
}

}  // namespace
}  // namespace qens
