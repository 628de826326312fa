#ifndef QENS_TENSOR_MATRIX_H_
#define QENS_TENSOR_MATRIX_H_

/// \file matrix.h
/// Dense row-major double matrix — the numeric workhorse under the ML and
/// clustering subsystems. Deliberately minimal: shapes are validated with
/// Status on the fallible paths, and the hot paths (GEMM, axpy) are raw
/// pointer loops arranged for cache-friendly traversal, with fused
/// transposed-operand kernels and *Into variants that write caller-owned
/// scratch so steady-state training never touches the allocator.
///
/// Determinism: every kernel accumulates each output element in the same
/// operand order as its naive counterpart (ascending inner index), so the
/// fused and scratch variants are bit-identical to the compositions they
/// replace.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "qens/common/status.h"

namespace qens {

/// Dense row-major matrix of doubles.
///
/// Rows index samples, columns index features throughout the library.
/// A 0x0 matrix is a valid empty value.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested initializer list; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Adopt a flat row-major buffer. Fails unless data.size() == rows*cols.
  static Result<Matrix> FromFlat(size_t rows, size_t cols,
                                 std::vector<double> data);

  /// Identity matrix of size n x n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Unchecked element access (asserts in debug builds).
  double& At(size_t r, size_t c);
  double At(size_t r, size_t c) const;
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Raw row-major storage.
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Pointer to the start of row r.
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }

  /// Copy of row r as a vector.
  std::vector<double> Row(size_t r) const;

  /// Copy of column c as a vector.
  std::vector<double> Col(size_t c) const;

  /// Resize to rows x cols, reusing the existing allocation when capacity
  /// allows. Element values are unspecified afterwards — callers overwrite.
  void ResizeUninitialized(size_t rows, size_t cols);

  /// Overwrite row r with `values` (size must equal cols()).
  Status SetRow(size_t r, const std::vector<double>& values);

  /// New matrix containing the given rows of this one, in order.
  /// Fails if any index is out of range.
  Result<Matrix> SelectRows(const std::vector<size_t>& indices) const;

  /// Transposed copy.
  Matrix Transposed() const;

  /// Matrix product this * rhs. Fails unless cols() == rhs.rows().
  Result<Matrix> MatMul(const Matrix& rhs) const;

  /// MatMul into caller-owned scratch (resized, reusing its allocation).
  /// `out` must alias neither operand.
  Status MatMulInto(const Matrix& rhs, Matrix* out) const;

  /// Fused dense forward kernel: out = this * rhs, then `bias` (length
  /// rhs.cols()) added to every output row while it is still cache-hot.
  /// Bit-identical to MatMul followed by AddRowBroadcast.
  Status MatMulAddBiasInto(const Matrix& rhs, const std::vector<double>& bias,
                           Matrix* out) const;

  /// Fused backward kernel: out = thisᵀ * rhs without materializing the
  /// transpose (this is (m x k), rhs is (m x n), out is (k x n)).
  /// Bit-identical to Transposed().MatMul(rhs).
  Status MatMulTransposedAInto(const Matrix& rhs, Matrix* out) const;
  Result<Matrix> MatMulTransposedA(const Matrix& rhs) const;

  /// Fused backward kernel: out = this * rhsᵀ without materializing the
  /// transpose (this is (m x k), rhs is (n x k), out is (m x n)).
  /// Bit-identical to MatMul(rhs.Transposed()).
  Status MatMulTransposedBInto(const Matrix& rhs, Matrix* out) const;
  Result<Matrix> MatMulTransposedB(const Matrix& rhs) const;

  /// this += alpha * rhs (elementwise). Fails on shape mismatch.
  Status Axpy(double alpha, const Matrix& rhs);

  /// Elementwise sum / difference / Hadamard product. Fail on shape mismatch.
  Result<Matrix> Add(const Matrix& rhs) const;
  Result<Matrix> Sub(const Matrix& rhs) const;
  Result<Matrix> Hadamard(const Matrix& rhs) const;

  /// In-place multiply every element by s.
  void Scale(double s);

  /// Set every element to `value`.
  void Fill(double value);

  /// Add `row` (size cols()) to every row — broadcast bias addition.
  Status AddRowBroadcast(const std::vector<double>& row);

  /// Sum over rows: returns a length-cols() vector of column sums.
  std::vector<double> ColSums() const;

  /// ColSums into caller-owned scratch (resized, reusing its allocation).
  /// Each sum starts from 0.0 and adds the rows in ascending order.
  void ColSumsInto(std::vector<double>* sums) const;

  /// Mean over rows: returns a length-cols() vector of column means.
  /// Returns zeros when the matrix has no rows.
  std::vector<double> ColMeans() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Elementwise maximum absolute difference; infinity on shape mismatch.
  double MaxAbsDiff(const Matrix& rhs) const;

  bool SameShape(const Matrix& rhs) const {
    return rows_ == rhs.rows_ && cols_ == rhs.cols_;
  }

  bool operator==(const Matrix& rhs) const {
    return SameShape(rhs) && data_ == rhs.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace qens

#endif  // QENS_TENSOR_MATRIX_H_
