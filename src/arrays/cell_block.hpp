// Storage shared by the engine-backed triangular arrays (GktModularArray,
// TriangularModularCore): the diagonal-major cell numbering, the block
// their cell modules live in, and the pool that recycles an array's
// storage for the next array of its kind.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace sysdp {

/// Arena id of cell (i, j), i <= j, in an n-key triangle: diagonal-major,
/// so diagonal d = j - i starts after the d*n - d(d-1)/2 cells of the
/// diagonals below it.  The n diagonal cells are ids 0..n-1.
[[nodiscard]] inline std::uint32_t cell_id(std::size_t n, std::size_t i,
                                           std::size_t j) {
  const std::size_t d = j - i;
  return static_cast<std::uint32_t>(d * n - d * (d - 1) / 2 + i);
}

/// The n(n+1)/2 cell modules of an n-key array, constructed in place in
/// one allocation, in registration (diagonal-major) order: elaboration
/// allocates once per array, not once per cell, and the gated engine's
/// sorted active set walks the cells in address order.  Modules are
/// neither copyable nor movable, hence no std::vector.  `T` may be
/// incomplete where the block is declared; it must be complete where the
/// block is filled or destroyed.
template <typename T>
class CellBlock {
 public:
  CellBlock() = default;
  ~CellBlock() {
    clear();
    std::allocator<T>{}.deallocate(data_, capacity_);
  }

  CellBlock(const CellBlock&) = delete;
  CellBlock& operator=(const CellBlock&) = delete;

  /// Destroy every cell and make room for `capacity` new ones, keeping
  /// the allocation if it is large enough.
  void reset(std::size_t capacity) {
    clear();
    if (capacity > capacity_) {
      std::allocator<T>{}.deallocate(data_, capacity_);
      data_ = nullptr;  // consistent if allocate throws
      capacity_ = 0;
      data_ = std::allocator<T>{}.allocate(capacity);
      capacity_ = capacity;
    }
  }

  /// Destroy every cell; the allocation stays for the next reset().
  void clear() noexcept {
    std::destroy(data_, data_ + size_);
    size_ = 0;
  }

  /// Construct the next cell in place; at most `capacity` per reset().
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    assert(size_ < capacity_);
    T* const cell =
        std::construct_at(data_ + size_, std::forward<Args>(args)...);
    ++size_;
    return *cell;
  }

  [[nodiscard]] T& operator[](std::size_t k) { return data_[k]; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// One retired storage object of type T, parked for the next array of the
/// same kind.  An n = 96 array's lanes and tables run to megabytes, and
/// freeing them every instance lets glibc hand the top of its heap back
/// to the kernel, so the next instance page-faults all of it in again
/// (measured: ~1,900 minor faults per BST n96 run).  A parked object keeps
/// its buffers' capacity, so a sweep of same-kind arrays reuses one set.
///
/// T provides `void retire()` (drop state, keep capacity) and
/// `std::size_t footprint() const` (bytes held).  Thread-safe; the slot is
/// never destroyed, so an array destroyed during static destruction can
/// still retire into it.
///
/// A dead array's cells and lanes stay mapped while parked, so a module
/// pointer an engine kept would dangle silently: an array must outlive
/// every use of the engines it elaborates into.  Under AddressSanitizer
/// nothing is parked, so such a pointer still faults there.
template <typename T>
class SparePool {
 public:
  /// Storage above this is freed, not parked (glibc's own dynamic trim
  /// threshold tops out at the same 64 MB).
  static constexpr std::size_t kMaxParkedBytes = std::size_t{64} << 20;
#ifdef __SANITIZE_ADDRESS__
  static constexpr bool kParks = false;
#else
  static constexpr bool kParks = true;
#endif

  /// The parked object, or a fresh one.
  [[nodiscard]] static std::unique_ptr<T> take() {
    Slot& s = slot();
    std::unique_ptr<T> t;
    {
      const std::lock_guard<std::mutex> lock(s.mu);
      t = std::move(s.spare);
    }
    return t != nullptr ? std::move(t) : std::make_unique<T>();
  }

  /// Park `t` unless the slot is taken or `t` is too large to keep.
  static void give(std::unique_ptr<T> t) {
    if (!kParks || t == nullptr) return;
    t->retire();
    if (t->footprint() > kMaxParkedBytes) return;
    Slot& s = slot();
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.spare == nullptr) s.spare = std::move(t);
  }

 private:
  struct Slot {
    std::mutex mu;
    std::unique_ptr<T> spare;
  };
  static Slot& slot() {
    static Slot* const s = new Slot;  // never destroyed, see above
    return *s;
  }
};

/// Bytes held by a vector's buffer (for footprint()).
template <typename V>
[[nodiscard]] std::size_t buffer_bytes(const V& v) noexcept {
  return v.capacity() * sizeof(typename V::value_type);
}

}  // namespace sysdp
