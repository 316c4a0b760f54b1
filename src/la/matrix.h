// Dense column-major matrices and non-owning views.
//
// All la/ kernels operate on views (pointer + dims + leading dimension),
// which lets the core algorithm address sub-blocks of the generator and the
// triangular factor without copies — the same convention as LAPACK.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace bst::la {

using index_t = std::ptrdiff_t;

template <typename T>
class MatrixView;
template <typename T>
class ConstMatrixView;

/// Owning dense column-major matrix, zero-initialized.
///
/// The storage comes from calloc, so construction writes nothing: a large
/// block arrives from the kernel as fresh zero pages, and pages the program
/// never touches (the lower triangle of a Schur factor) never become
/// resident.  calloc clears reused heap memory itself, which keeps every
/// new Matrix zero; there is deliberately no in-place resize that could
/// hand back stale contents.
template <typename T>
class Matrix {
  static_assert(std::is_trivially_copyable_v<T>, "Matrix storage is raw memory");

 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols) : rows_(rows), cols_(cols), data_(allocate(size(), true)) {
    assert(rows >= 0 && cols >= 0);
  }
  /// Builds from row-major nested initializer lists (test convenience).
  Matrix(std::initializer_list<std::initializer_list<T>> init)
      : Matrix(static_cast<index_t>(init.size()),
               init.size() == 0 ? 0 : static_cast<index_t>(init.begin()->size())) {
    index_t i = 0;
    for (const auto& r : init) {
      assert(static_cast<index_t>(r.size()) == cols_);
      index_t j = 0;
      for (const T& v : r) (*this)(i, j++) = v;
      ++i;
    }
  }
  Matrix(const Matrix& o) : rows_(o.rows_), cols_(o.cols_), data_(allocate(size(), false)) {
    if (size() > 0) std::memcpy(data(), o.data(), size() * sizeof(T));
  }
  Matrix(Matrix&& o) noexcept
      : rows_(std::exchange(o.rows_, 0)),
        cols_(std::exchange(o.cols_, 0)),
        data_(std::move(o.data_)) {}
  Matrix& operator=(Matrix o) noexcept {
    std::swap(rows_, o.rows_);
    std::swap(cols_, o.cols_);
    std::swap(data_, o.data_);
    return *this;
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return rows_; }
  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] const T* data() const noexcept { return data_.get(); }

  T& operator()(index_t i, index_t j) noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }
  const T& operator()(index_t i, index_t j) const noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }

  /// Whole-matrix mutable/const views.
  MatrixView<T> view() noexcept;
  ConstMatrixView<T> view() const noexcept;
  /// Sub-block view of `r x c` starting at (i0, j0).
  MatrixView<T> block(index_t i0, index_t j0, index_t r, index_t c) noexcept;
  ConstMatrixView<T> block(index_t i0, index_t j0, index_t r, index_t c) const noexcept;

 private:
  struct Free {
    void operator()(T* p) const noexcept { std::free(p); }
  };
  using Storage = std::unique_ptr<T[], Free>;

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  }
  // calloc for fresh (zeroed) storage, malloc for storage a copy fills.
  static Storage allocate(std::size_t count, bool zeroed) {
    if (count == 0) return nullptr;
    void* p = zeroed ? std::calloc(count, sizeof(T)) : std::malloc(count * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return Storage(static_cast<T*>(p));
  }

  index_t rows_ = 0, cols_ = 0;
  Storage data_;
};

/// Non-owning mutable column-major view.
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    assert(ld >= rows);
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return ld_; }
  [[nodiscard]] T* data() const noexcept { return data_; }
  [[nodiscard]] T* col(index_t j) const noexcept { return data_ + j * ld_; }

  T& operator()(index_t i, index_t j) const noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[j * ld_ + i];
  }

  [[nodiscard]] MatrixView block(index_t i0, index_t j0, index_t r, index_t c) const noexcept {
    assert(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_);
    return MatrixView(data_ + j0 * ld_ + i0, r, c, ld_);
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0, ld_ = 0;
};

/// Non-owning const column-major view.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    assert(ld >= rows);
  }
  // NOLINTNEXTLINE(google-explicit-constructor): mutable->const is implicit by design.
  ConstMatrixView(MatrixView<T> v)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t ld() const noexcept { return ld_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] const T* col(index_t j) const noexcept { return data_ + j * ld_; }

  const T& operator()(index_t i, index_t j) const noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[j * ld_ + i];
  }

  [[nodiscard]] ConstMatrixView block(index_t i0, index_t j0, index_t r, index_t c) const noexcept {
    assert(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_);
    return ConstMatrixView(data_ + j0 * ld_ + i0, r, c, ld_);
  }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0, ld_ = 0;
};

template <typename T>
MatrixView<T> Matrix<T>::view() noexcept {
  return MatrixView<T>(data(), rows_, cols_, rows_);
}
template <typename T>
ConstMatrixView<T> Matrix<T>::view() const noexcept {
  return ConstMatrixView<T>(data(), rows_, cols_, rows_);
}
template <typename T>
MatrixView<T> Matrix<T>::block(index_t i0, index_t j0, index_t r, index_t c) noexcept {
  return view().block(i0, j0, r, c);
}
template <typename T>
ConstMatrixView<T> Matrix<T>::block(index_t i0, index_t j0, index_t r, index_t c) const noexcept {
  return view().block(i0, j0, r, c);
}

using Mat = Matrix<double>;
using View = MatrixView<double>;
using CView = ConstMatrixView<double>;

/// Copies src into dst (dimensions must match).
void copy(CView src, View dst);

/// Returns an identity matrix of order n.
Mat identity(index_t n);

/// Returns the transpose of a (fresh allocation).
Mat transpose(CView a);

/// Fills `a` with zeros.
void set_zero(View a);

}  // namespace bst::la
