// Dense row-major matrix over an arbitrary element type.
//
// Stage-to-stage cost matrices (eq. 8) are small and dense (m x m for m
// quantised values per stage), so a simple contiguous layout is both the
// fastest and the most faithful model of the systolic data streams, which
// read rows/columns in order.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sysdp {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// rows x cols matrix over `data`, row-major.  Throws
  /// std::invalid_argument unless `data` holds exactly rows x cols entries.
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    const bool fits = cols_ == 0 ? data_.empty()
                                 : data_.size() % cols_ == 0 &&
                                       data_.size() / cols_ == rows_;
    if (!fits) throw std::invalid_argument("Matrix: data is not rows x cols");
  }

  /// Brace construction from rows; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_) {
        throw std::invalid_argument("Matrix: ragged initializer");
      }
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access for callers handling untrusted indices.
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] T& at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::vector<T> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
  }
  [[nodiscard]] std::vector<T> col(std::size_t c) const {
    assert(c < cols_);
    std::vector<T> out;
    out.reserve(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out.push_back((*this)(r, c));
    return out;
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace sysdp
