#include "qens/tensor/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "qens/common/string_util.h"

namespace qens {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_ && "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Result<Matrix> Matrix::FromFlat(size_t rows, size_t cols,
                                std::vector<double> data) {
  if (data.size() != rows * cols) {
    return Status::InvalidArgument(StrFormat(
        "FromFlat: buffer size %zu does not match %zux%zu", data.size(), rows,
        cols));
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

double& Matrix::At(size_t r, size_t c) {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::At(size_t r, size_t c) const {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

std::vector<double> Matrix::Col(size_t c) const {
  assert(c < cols_);
  std::vector<double> out(rows_);
  // Raw strided walk: one pointer bump per row instead of a checked
  // At(r, c) index computation in the inner loop.
  const double* src = data_.data() + c;
  for (size_t r = 0; r < rows_; ++r, src += cols_) out[r] = *src;
  return out;
}

void Matrix::ResizeUninitialized(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Status Matrix::SetRow(size_t r, const std::vector<double>& values) {
  if (r >= rows_) {
    return Status::OutOfRange(StrFormat("SetRow: row %zu >= %zu", r, rows_));
  }
  if (values.size() != cols_) {
    return Status::InvalidArgument(StrFormat(
        "SetRow: value size %zu != cols %zu", values.size(), cols_));
  }
  std::copy(values.begin(), values.end(), RowPtr(r));
  return Status::OK();
}

Result<Matrix> Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out;
  out.ResizeUninitialized(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_) {
      return Status::OutOfRange(
          StrFormat("SelectRows: index %zu >= %zu", indices[i], rows_));
    }
    std::copy(RowPtr(indices[i]), RowPtr(indices[i]) + cols_, out.RowPtr(i));
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  double* dst = out.data_.data();
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    // out(c, r): strided writes, one bump of `cols_out == rows_` per step.
    double* o = dst + r;
    for (size_t c = 0; c < cols_; ++c, o += rows_) *o = src[c];
  }
  return out;
}

namespace {

/// Column-tile width for the GEMM kernels: bounds the slab of `rhs` rows
/// revisited per output row so it stays cache-resident at large widths.
/// Tiling j never reorders the per-element k-accumulation, so tiled output
/// is bit-identical to the untiled loop.
constexpr size_t kGemmColTile = 256;

/// GemmAccumulate for a one-column rhs (a scalar output per row, as in a
/// linear regression head): out[i] += a(i, :) · b. One row's dot product is
/// a single dependent add chain, so four rows run at once to keep four
/// chains in flight. Each chain still starts from out[i] and adds
/// a(i, k) * b[k] in ascending k — the general loop's order — so the result
/// is bit-identical to it.
void GemvAccumulate(const double* a_data, size_t a_rows, size_t a_cols,
                    const double* b, double* out) {
  size_t i = 0;
  for (; i + 4 <= a_rows; i += 4) {
    const double* a0 = a_data + i * a_cols;
    const double* a1 = a0 + a_cols;
    const double* a2 = a1 + a_cols;
    const double* a3 = a2 + a_cols;
    double s0 = out[i];
    double s1 = out[i + 1];
    double s2 = out[i + 2];
    double s3 = out[i + 3];
    for (size_t k = 0; k < a_cols; ++k) {
      const double bk = b[k];
      s0 += a0[k] * bk;
      s1 += a1[k] * bk;
      s2 += a2[k] * bk;
      s3 += a3[k] * bk;
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < a_rows; ++i) {
    const double* a = a_data + i * a_cols;
    double s = out[i];
    for (size_t k = 0; k < a_cols; ++k) s += a[k] * b[k];
    out[i] = s;
  }
}

/// Shared ikj GEMM core: out(i, :) += a(i, :) * b. `out` must be
/// zero-initialized (or hold the values being accumulated into). No skip on
/// zero multiplicands: 0 * NaN and 0 * Inf must propagate per IEEE-754 (a
/// former `aik == 0` fast path silently swallowed non-finite rhs values,
/// defeating the leader-side non-finite screening).
///
/// The k-loop is unrolled 4x with the four updates to each o[j] issued as
/// separate sequential adds (never a reassociated partial-sum tree), so each
/// output element still accumulates in strictly ascending k and the result
/// stays bit-identical to the rolled loop. The unroll amortizes the o[j]
/// load/store over four multiply-adds and leaves the j-direction free for
/// the vectorizer, which carries the k-chain inside one vector lane.
void GemmAccumulate(const double* a_data, size_t a_rows, size_t a_cols,
                    const double* b_data, size_t b_cols, double* out_data) {
  if (b_cols == 1) {
    GemvAccumulate(a_data, a_rows, a_cols, b_data, out_data);
    return;
  }
  for (size_t j0 = 0; j0 < b_cols; j0 += kGemmColTile) {
    const size_t j1 = std::min(j0 + kGemmColTile, b_cols);
    for (size_t i = 0; i < a_rows; ++i) {
      const double* a = a_data + i * a_cols;
      double* o = out_data + i * b_cols;
      size_t k = 0;
      for (; k + 4 <= a_cols; k += 4) {
        const double a0 = a[k];
        const double a1 = a[k + 1];
        const double a2 = a[k + 2];
        const double a3 = a[k + 3];
        const double* b0 = b_data + k * b_cols;
        const double* b1 = b0 + b_cols;
        const double* b2 = b1 + b_cols;
        const double* b3 = b2 + b_cols;
        for (size_t j = j0; j < j1; ++j) {
          double acc = o[j];
          acc += a0 * b0[j];
          acc += a1 * b1[j];
          acc += a2 * b2[j];
          acc += a3 * b3[j];
          o[j] = acc;
        }
      }
      for (; k < a_cols; ++k) {
        const double aik = a[k];
        const double* b = b_data + k * b_cols;
        for (size_t j = j0; j < j1; ++j) o[j] += aik * b[j];
      }
    }
  }
}

}  // namespace

Result<Matrix> Matrix::MatMul(const Matrix& rhs) const {
  Matrix out;
  QENS_RETURN_NOT_OK(MatMulInto(rhs, &out));
  return out;
}

Status Matrix::MatMulInto(const Matrix& rhs, Matrix* out) const {
  if (cols_ != rhs.rows_) {
    return Status::InvalidArgument(
        StrFormat("MatMul: %zux%zu * %zux%zu shape mismatch", rows_, cols_,
                  rhs.rows_, rhs.cols_));
  }
  out->ResizeUninitialized(rows_, rhs.cols_);
  std::fill(out->data_.begin(), out->data_.end(), 0.0);
  GemmAccumulate(data_.data(), rows_, cols_, rhs.data_.data(), rhs.cols_,
                 out->data_.data());
  return Status::OK();
}

Status Matrix::MatMulAddBiasInto(const Matrix& rhs,
                                 const std::vector<double>& bias,
                                 Matrix* out) const {
  if (cols_ != rhs.rows_) {
    return Status::InvalidArgument(
        StrFormat("MatMulAddBias: %zux%zu * %zux%zu shape mismatch", rows_,
                  cols_, rhs.rows_, rhs.cols_));
  }
  if (bias.size() != rhs.cols_) {
    return Status::InvalidArgument(
        StrFormat("MatMulAddBias: bias size %zu != %zu", bias.size(),
                  rhs.cols_));
  }
  out->ResizeUninitialized(rows_, rhs.cols_);
  std::fill(out->data_.begin(), out->data_.end(), 0.0);
  GemmAccumulate(data_.data(), rows_, cols_, rhs.data_.data(), rhs.cols_,
                 out->data_.data());
  // Bias lands after the full k-accumulation — the same operand order as
  // MatMul + AddRowBroadcast, fused while the output is still hot.
  const double* b = bias.data();
  for (size_t i = 0; i < rows_; ++i) {
    double* o = out->RowPtr(i);
    for (size_t j = 0; j < rhs.cols_; ++j) o[j] += b[j];
  }
  return Status::OK();
}

Status Matrix::MatMulTransposedAInto(const Matrix& rhs, Matrix* out) const {
  // out = thisᵀ * rhs: this is (m x k), rhs is (m x n), out is (k x n).
  if (rows_ != rhs.rows_) {
    return Status::InvalidArgument(
        StrFormat("MatMulTransposedA: %zux%zu vs %zux%zu row mismatch", rows_,
                  cols_, rhs.rows_, rhs.cols_));
  }
  out->ResizeUninitialized(cols_, rhs.cols_);
  std::fill(out->data_.begin(), out->data_.end(), 0.0);
  // Accumulate rank-1 updates row by row: for each sample r, out(i, :) +=
  // this(r, i) * rhs(r, :). Ascending r per output element — the order
  // Transposed().MatMul(rhs) uses, so results are bit-identical to it. Rows
  // are unrolled 4 at a time with the four updates to each out(i, j) issued
  // as sequential adds (same ascending-r chain, never a partial-sum tree),
  // which amortizes the output load/store and keeps j vectorizable.
  const size_t n = rhs.cols_;
  size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* a0 = RowPtr(r);
    const double* a1 = RowPtr(r + 1);
    const double* a2 = RowPtr(r + 2);
    const double* a3 = RowPtr(r + 3);
    const double* b0 = rhs.RowPtr(r);
    const double* b1 = rhs.RowPtr(r + 1);
    const double* b2 = rhs.RowPtr(r + 2);
    const double* b3 = rhs.RowPtr(r + 3);
    for (size_t i = 0; i < cols_; ++i) {
      const double c0 = a0[i];
      const double c1 = a1[i];
      const double c2 = a2[i];
      const double c3 = a3[i];
      double* o = out->RowPtr(i);
      for (size_t j = 0; j < n; ++j) {
        double acc = o[j];
        acc += c0 * b0[j];
        acc += c1 * b1[j];
        acc += c2 * b2[j];
        acc += c3 * b3[j];
        o[j] = acc;
      }
    }
  }
  for (; r < rows_; ++r) {
    const double* a = RowPtr(r);
    const double* b = rhs.RowPtr(r);
    for (size_t i = 0; i < cols_; ++i) {
      const double ari = a[i];
      double* o = out->RowPtr(i);
      for (size_t j = 0; j < n; ++j) o[j] += ari * b[j];
    }
  }
  return Status::OK();
}

Result<Matrix> Matrix::MatMulTransposedA(const Matrix& rhs) const {
  Matrix out;
  QENS_RETURN_NOT_OK(MatMulTransposedAInto(rhs, &out));
  return out;
}

Status Matrix::MatMulTransposedBInto(const Matrix& rhs, Matrix* out) const {
  // out = this * rhsᵀ: this is (m x k), rhs is (n x k), out is (m x n).
  if (cols_ != rhs.cols_) {
    return Status::InvalidArgument(
        StrFormat("MatMulTransposedB: %zux%zu vs %zux%zu col mismatch", rows_,
                  cols_, rhs.rows_, rhs.cols_));
  }
  out->ResizeUninitialized(rows_, rhs.rows_);
  // Every output element is a dot product of two contiguous rows,
  // accumulated in ascending k — the order MatMul(rhs.Transposed()) uses.
  // Four output columns are computed per pass so the four independent dot
  // chains overlap in flight; each chain is still its own strictly
  // sequential ascending-k accumulation, so every element is bit-identical
  // to the one-column loop.
  const size_t n = rhs.rows_;
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = RowPtr(i);
    double* o = out->RowPtr(i);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = rhs.RowPtr(j);
      const double* b1 = rhs.RowPtr(j + 1);
      const double* b2 = rhs.RowPtr(j + 2);
      const double* b3 = rhs.RowPtr(j + 3);
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (size_t k = 0; k < cols_; ++k) {
        const double av = a[k];
        s0 += av * b0[k];
        s1 += av * b1[k];
        s2 += av * b2[k];
        s3 += av * b3[k];
      }
      o[j] = s0;
      o[j + 1] = s1;
      o[j + 2] = s2;
      o[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* b = rhs.RowPtr(j);
      double acc = 0.0;
      for (size_t k = 0; k < cols_; ++k) acc += a[k] * b[k];
      o[j] = acc;
    }
  }
  return Status::OK();
}

Result<Matrix> Matrix::MatMulTransposedB(const Matrix& rhs) const {
  Matrix out;
  QENS_RETURN_NOT_OK(MatMulTransposedBInto(rhs, &out));
  return out;
}

Status Matrix::Axpy(double alpha, const Matrix& rhs) {
  if (!SameShape(rhs)) {
    return Status::InvalidArgument("Axpy: shape mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * rhs.data_[i];
  return Status::OK();
}

Result<Matrix> Matrix::Add(const Matrix& rhs) const {
  if (!SameShape(rhs)) return Status::InvalidArgument("Add: shape mismatch");
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Result<Matrix> Matrix::Sub(const Matrix& rhs) const {
  if (!SameShape(rhs)) return Status::InvalidArgument("Sub: shape mismatch");
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Result<Matrix> Matrix::Hadamard(const Matrix& rhs) const {
  if (!SameShape(rhs)) {
    return Status::InvalidArgument("Hadamard: shape mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= rhs.data_[i];
  return out;
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Status Matrix::AddRowBroadcast(const std::vector<double>& row) {
  if (row.size() != cols_) {
    return Status::InvalidArgument(StrFormat(
        "AddRowBroadcast: row size %zu != cols %zu", row.size(), cols_));
  }
  for (size_t r = 0; r < rows_; ++r) {
    double* dst = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) dst[c] += row[c];
  }
  return Status::OK();
}

std::vector<double> Matrix::ColSums() const {
  std::vector<double> sums;
  ColSumsInto(&sums);
  return sums;
}

void Matrix::ColSumsInto(std::vector<double>* sums) const {
  sums->assign(cols_, 0.0);
  double* dst = sums->data();
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
}

std::vector<double> Matrix::ColMeans() const {
  std::vector<double> means = ColSums();
  if (rows_ == 0) return means;
  for (double& v : means) v /= static_cast<double>(rows_);
  return means;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::MaxAbsDiff(const Matrix& rhs) const {
  if (!SameShape(rhs)) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - rhs.data_[i]));
  }
  return m;
}

}  // namespace qens
