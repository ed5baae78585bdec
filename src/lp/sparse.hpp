// sparse.hpp — compressed sparse columns and rows, pattern-tracked work
// vectors and the product-form eta file, the storage layer under the revised
// simplex (revised_simplex.cpp).
//
// The basis inverse is kept as a product of eta matrices ("product form of
// the inverse", the layout chuffed's LUFactor also uses): each pivot appends
// one eta; refactorization rebuilds the file from the basis columns with
// partial pivoting, sparsest column first. An eta is the identity except in
// one column, so FTRAN (v ← B⁻¹v) applies the file left-to-right with one
// axpy per eta whose pivot entry is nonzero, and BTRAN (v ← B⁻ᵀv) applies
// transposed etas right-to-left with one sparse dot each. This is a
// Gauss–Jordan product form rather than a triangular LU — more fill per
// eta, but one code path serves both the per-pivot update and the rebuild,
// and the refactorization interval keeps the file short.
//
// FTRAN works on a SparseVector, which records every position it fills in,
// so the consumers of an FTRAN'd column (ratio test, x_B update, eta
// append) walk its nonzero pattern instead of all m rows: their cost scales
// with the pattern, not with the row count. All etas live in one flat
// arena, so appending allocates nothing once the arena has grown.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/contract.hpp"

namespace stosched::lp {

/// Column-major sparse matrix (CSC): column j holds entries
/// [start[j], start[j+1]) of (row, value).
struct SparseColumns {
  std::size_t rows = 0;
  std::vector<std::size_t> start;  ///< cols+1 offsets into row/value
  std::vector<std::uint32_t> row;
  std::vector<double> value;

  [[nodiscard]] std::size_t cols() const {
    return start.empty() ? 0 : start.size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const { return value.size(); }
};

/// Row-major sparse matrix (CSR): row i holds entries [start[i], start[i+1])
/// of (col, value).
struct SparseRows {
  std::vector<std::size_t> start;  ///< rows+1 offsets into col/value
  std::vector<std::uint32_t> col;
  std::vector<double> value;
};

/// A dense vector that knows its nonzero pattern: `index` lists, once each,
/// every position written since the last clear() (flagged in `mark`).
/// Positions outside the pattern hold exactly +0.0. An entry that cancels
/// to zero stays in the pattern, which only costs a skipped visit.
struct SparseVector {
  std::vector<double> value;
  std::vector<char> mark;
  std::vector<std::uint32_t> index;

  void resize(std::size_t n) {
    value.assign(n, 0.0);
    mark.assign(n, 0);
    index.clear();
    index.reserve(n);
  }
  /// value[i] += v, entering i into the pattern on first touch.
  void add(std::uint32_t i, double v) {
    if (mark[i] == 0) {
      mark[i] = 1;
      index.push_back(i);
    }
    value[i] += v;
  }
  /// Overwrite with a dense vector of the same length; the pattern becomes
  /// every position, ascending.
  void assign_dense(const std::vector<double>& dense) {
    value = dense;
    std::fill(mark.begin(), mark.end(), char{1});
    index.resize(value.size());
    std::iota(index.begin(), index.end(), std::uint32_t{0});
  }
  /// Ascending pattern: loops over it then visit rows in the same order a
  /// dense 0..n-1 sweep would.
  void sort_pattern() { std::sort(index.begin(), index.end()); }
  /// Back to all zeros, in O(pattern).
  void clear() {
    for (const std::uint32_t i : index) {
      value[i] = 0.0;
      mark[i] = 0;
    }
    index.clear();
  }
};

/// The eta file: B⁻¹ = E_K ··· E_1 for the current basis. Eta k is the
/// identity with column pivot_[k] replaced: applying it scales that entry by
/// diag_[k] and adds the (index_, value_) multiples in [start_[k],
/// start_[k+1]) of the old pivot entry elsewhere. append() is both the
/// per-pivot update (w = current B⁻¹ times the entering column) and one step
/// of refactorization (w = partial product times a basis column).
class EtaFile {
 public:
  void clear() {
    pivot_.clear();
    diag_.clear();
    start_.assign(1, 0);
    index_.clear();
    value_.clear();
  }
  [[nodiscard]] std::size_t size() const { return pivot_.size(); }
  [[nodiscard]] std::size_t nnz() const { return size() + index_.size(); }

  /// Append the eta that maps the (already FTRANed) column w to e_pivot.
  /// w's pattern must be sorted ascending, so the eta stores its entries in
  /// row order. Entries below drop_tol are discarded; a column that is
  /// already e_pivot appends nothing. The caller guarantees |w[pivot]| is
  /// pivot-worthy.
  void append(const SparseVector& w, std::uint32_t pivot, double drop_tol) {
    STOSCHED_EXPECTS(std::is_sorted(w.index.begin(), w.index.end()),
                     "eta append needs an ascending pattern");
    const double pv = w.value[pivot];
    const double diag = 1.0 / pv;
    const std::size_t begin = index_.size();
    for (const std::uint32_t k : w.index) {
      if (k == pivot) continue;
      const double v = w.value[k];
      if (v > drop_tol || v < -drop_tol) {
        index_.push_back(k);
        value_.push_back(-v / pv);
      }
    }
    if (index_.size() == begin && diag == 1.0) return;  // identity eta
    pivot_.push_back(pivot);
    diag_.push_back(diag);
    start_.push_back(index_.size());
  }

  /// v ← B⁻¹ v, extending v's pattern with every entry an eta fills in.
  void ftran(SparseVector& v) const {
    for (std::size_t e = 0; e < pivot_.size(); ++e) {
      const double t = v.value[pivot_[e]];
      if (t == 0.0) continue;
      v.value[pivot_[e]] = diag_[e] * t;
      for (std::size_t k = start_[e]; k < start_[e + 1]; ++k)
        v.add(index_[k], value_[k] * t);
    }
  }

  /// v ← B⁻ᵀ v (dense work vector).
  void btran(std::vector<double>& v) const {
    for (std::size_t e = pivot_.size(); e-- > 0;) {
      double s = diag_[e] * v[pivot_[e]];
      for (std::size_t k = start_[e]; k < start_[e + 1]; ++k)
        s += value_[k] * v[index_[k]];
      v[pivot_[e]] = s;
    }
  }

 private:
  std::vector<std::uint32_t> pivot_;
  std::vector<double> diag_;
  std::vector<std::size_t> start_{0};  ///< size()+1 offsets into index_/value_
  std::vector<std::uint32_t> index_;
  std::vector<double> value_;
};

}  // namespace stosched::lp
