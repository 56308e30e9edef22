#include "qdm/linalg/matrix.h"

#include <cmath>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    QDM_CHECK_EQ(row.size(), cols_) << "ragged initializer for Matrix";
    for (const Complex& v : row) data_.push_back(v);
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = Complex(1, 0);
  return m;
}

Matrix Matrix::operator+(const Matrix& other) const {
  QDM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  QDM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  QDM_CHECK_EQ(cols_, other.rows_) << "matrix shape mismatch in multiply";
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      Complex aik = (*this)(i, k);
      if (aik == Complex(0, 0)) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += aik * other(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator*(Complex scalar) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * scalar;
  return out;
}

Matrix Matrix::Adjoint() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out(j, i) = std::conj((*this)(i, j));
    }
  }
  return out;
}

Complex Matrix::Trace() const {
  QDM_CHECK_EQ(rows_, cols_);
  Complex t(0, 0);
  for (size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

bool Matrix::IsUnitary(double tol) const {
  if (rows_ != cols_) return false;
  return ((*this) * Adjoint()).ApproxEqual(Identity(rows_), tol);
}

bool Matrix::IsHermitian(double tol) const {
  if (rows_ != cols_) return false;
  return ApproxEqual(Adjoint(), tol);
}

bool Matrix::ApproxEqual(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::vector<Complex> Matrix::Apply(const std::vector<Complex>& v) const {
  QDM_CHECK_EQ(cols_, v.size());
  std::vector<Complex> out(rows_, Complex(0, 0));
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out[i] += (*this)(i, j) * v[j];
    }
  }
  return out;
}

std::string Matrix::ToString() const {
  std::string out;
  for (size_t i = 0; i < rows_; ++i) {
    out += "[";
    for (size_t j = 0; j < cols_; ++j) {
      const Complex& v = (*this)(i, j);
      out += StrFormat("%+.4f%+.4fi", v.real(), v.imag());
      if (j + 1 < cols_) out += ", ";
    }
    out += "]\n";
  }
  return out;
}

}  // namespace linalg
}  // namespace qdm
