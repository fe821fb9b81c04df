#pragma once
// Sparse residual coefficient vectors for SSTA propagation.
//
// A SparseVec stands for a dense vector over the residual index space:
// its terms are the nonzero entries, sorted by strictly increasing slot,
// and every absent slot is an exact zero.  Each operation below computes,
// slot by slot, the same floating-point expression as the dense loop it
// replaces and visits the stored terms in slot order.  The dense terms it
// skips are exact zeros (a +-0 addend or a product with a zero factor),
// and adding +-0 to a nonzero value or to a +0 running sum changes
// nothing, so norms, dot products and stored values equal the dense ones
// bit for bit.  Results that come out exactly zero are dropped on emit,
// which keeps the invariant and, because saturated Clark folds blend with
// tightness exactly 0 or 1, keeps the vectors a few percent full.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace sva {

struct SparseTerm {
  std::uint32_t slot;
  double value;
};

using SparseVec = std::vector<SparseTerm>;

namespace sparse {

/// Past-the-end slot; never a valid residual index.
inline constexpr std::uint32_t kEnd =
    std::numeric_limits<std::uint32_t>::max();

inline void emit(SparseVec& out, std::uint32_t slot, double value) {
  if (value != 0.0) out.push_back({slot, value});
}

inline std::uint32_t slot_at(const SparseVec& v, std::size_t i) {
  return i < v.size() ? v[i].slot : kEnd;
}

/// out = a + k * b, then out[rid] += add (dense: `a[j] + k * b[j]`, then
/// `+ add` at rid).  `out` must not alias `a` or `b`.
inline void axpy_add(const SparseVec& a, double k, const SparseVec& b,
                     std::uint32_t rid, double add, SparseVec& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint32_t pending = rid;
  for (;;) {
    const std::uint32_t sa = slot_at(a, i);
    const std::uint32_t sb = slot_at(b, j);
    const std::uint32_t s = std::min({sa, sb, pending});
    if (s == kEnd) break;
    double v = 0.0;
    if (sa == s && sb == s) {
      v = a[i++].value + k * b[j++].value;
    } else if (sa == s) {
      v = a[i++].value;
    } else if (sb == s) {
      v = k * b[j++].value;
    }
    if (s == pending) {
      v += add;
      pending = kEnd;
    }
    emit(out, s, v);
  }
}

/// out = t * a + (1 - t) * b, the tightness blend of a Clark fold.
/// `out` must not alias `a` or `b`.
inline void blend(double t, const SparseVec& a, const SparseVec& b,
                  SparseVec& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  for (;;) {
    const std::uint32_t sa = slot_at(a, i);
    const std::uint32_t sb = slot_at(b, j);
    if (sa == kEnd && sb == kEnd) break;
    if (sa == sb) {
      emit(out, sa, t * a[i++].value + (1.0 - t) * b[j++].value);
    } else if (sa < sb) {
      emit(out, sa, t * a[i++].value);
    } else {
      emit(out, sb, (1.0 - t) * b[j++].value);
    }
  }
}

/// m += q * c, through `tmp` (dense: `m[j] += q * c[j]`).
inline void add_scaled(SparseVec& m, double q, const SparseVec& c,
                       SparseVec& tmp) {
  tmp.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  for (;;) {
    const std::uint32_t sm = slot_at(m, i);
    const std::uint32_t sc = slot_at(c, j);
    if (sm == kEnd && sc == kEnd) break;
    if (sm == sc) {
      emit(tmp, sm, m[i++].value + q * c[j++].value);
    } else if (sm < sc) {
      emit(tmp, sm, m[i++].value);
    } else {
      emit(tmp, sc, q * c[j++].value);
    }
  }
  m.swap(tmp);
}

/// Dot product over the sorted intersection of the two supports.
inline double dot(const SparseVec& a, const SparseVec& b) {
  double sum = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].slot == b[j].slot) {
      sum += a[i++].value * b[j++].value;
    } else if (a[i].slot < b[j].slot) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

/// Squared Euclidean norm.
inline double sq_norm(const SparseVec& a) {
  double sum = 0.0;
  for (const SparseTerm& term : a) sum += term.value * term.value;
  return sum;
}

/// v[slot] = value for a slot `v` does not hold, in sorted position
/// (dense: assignment over a zero).
inline void insert(SparseVec& v, std::uint32_t slot, double value) {
  if (value == 0.0) return;
  const auto it = std::lower_bound(
      v.begin(), v.end(), slot,
      [](const SparseTerm& term, std::uint32_t s) { return term.slot < s; });
  SVA_ASSERT(it == v.end() || it->slot != slot);
  v.insert(it, {slot, value});
}

}  // namespace sparse
}  // namespace sva
