#ifndef QDM_LINALG_MATRIX_H_
#define QDM_LINALG_MATRIX_H_

#include <complex>
#include <initializer_list>
#include <string>
#include <vector>

namespace qdm {

using Complex = std::complex<double>;

namespace linalg {

/// Dense complex matrix (row-major). Sized for quantum-gate work: the toolkit
/// only ever materializes matrices up to 2^k x 2^k for small k (gates, density
/// matrices of few qubits); the state-vector simulator never materializes full
/// operators.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, Complex(0, 0)) {}

  /// Builds from nested initializer lists:
  ///   Matrix m{{1, 0}, {0, 1}};
  Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

  static Matrix Identity(size_t n);
  static Matrix Zero(size_t rows, size_t cols) { return Matrix(rows, cols); }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  Complex& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  const Complex& operator()(size_t r, size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(Complex scalar) const;

  /// Conjugate transpose.
  Matrix Adjoint() const;

  /// Sum of diagonal entries.
  Complex Trace() const;

  /// True if this is square and M * M^dagger == I within `tol`.
  bool IsUnitary(double tol = 1e-9) const;

  /// True if Hermitian within `tol`.
  bool IsHermitian(double tol = 1e-9) const;

  /// Max-abs-difference comparison.
  bool ApproxEqual(const Matrix& other, double tol = 1e-9) const;

  /// Applies this (n x n) to a vector of length n.
  std::vector<Complex> Apply(const std::vector<Complex>& v) const;

  std::string ToString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<Complex> data_;
};

}  // namespace linalg
}  // namespace qdm

#endif  // QDM_LINALG_MATRIX_H_
