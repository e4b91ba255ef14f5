// Sorted-vector set algebra for the constraint-narrowing hot path.
//
// Candidate facility sets are sorted, duplicate-free vectors (or arena
// spans of the same shape). These helpers are the only set operations the
// core uses on them; all take sorted-unique inputs (asserted in debug
// builds) and produce sorted-unique outputs. `intersect_in_place` is the
// narrowing primitive: it writes only to already-consumed positions of
// the left operand, so when the intersection is empty it returns 0
// having written nothing — the caller can reject the emptying constraint
// (a conflict, core/candidates.cpp) and keep the original set intact
// without a copy. Property-tested against a std::set reference model in
// tests/util/setops_test.cpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <vector>

namespace cfs {

template <class T>
[[maybe_unused]] inline bool sorted_unique(const T* v, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i)
    if (!(v[i - 1] < v[i])) return false;
  return true;
}

template <class T>
[[maybe_unused]] inline bool sorted_unique(const std::vector<T>& v) {
  return sorted_unique(v.data(), v.size());
}

template <class T>
[[nodiscard]] std::vector<T> set_intersect(const std::vector<T>& a,
                                           const std::vector<T>& b) {
  assert(sorted_unique(a) && sorted_unique(b));
  std::vector<T> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// inner ⊆ outer.
template <class T>
[[nodiscard]] bool set_subset(const T* inner, std::size_t n, const T* outer,
                              std::size_t m) {
  assert(sorted_unique(inner, n) && sorted_unique(outer, m));
  return std::includes(outer, outer + m, inner, inner + n);
}

template <class T>
[[nodiscard]] bool set_subset(const std::vector<T>& inner,
                              const std::vector<T>& outer) {
  return set_subset(inner.data(), inner.size(), outer.data(), outer.size());
}

// |a ∩ b| without materialising the intersection.
template <class T>
[[nodiscard]] std::size_t set_intersect_count(const T* a, std::size_t n,
                                              const T* b, std::size_t m) {
  assert(sorted_unique(a, n) && sorted_unique(b, m));
  std::size_t out = 0, i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++out;
      ++i;
      ++j;
    }
  }
  return out;
}

// True when a and b share at least one element (early-exit).
template <class T>
[[nodiscard]] bool set_intersects(const T* a, std::size_t n, const T* b,
                                  std::size_t m) {
  assert(sorted_unique(a, n) && sorted_unique(b, m));
  std::size_t i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else
      return true;
  }
  return false;
}

template <class T>
[[nodiscard]] bool set_intersects(const std::vector<T>& a,
                                  const std::vector<T>& b) {
  return set_intersects(a.data(), a.size(), b.data(), b.size());
}

// a[0..n) ∩ b[0..m) written into a's prefix; returns the new length.
//
// Two-pointer scan: position `out` only ever trails the read cursor `i`,
// so every write lands on an element the scan has already consumed. In
// particular an empty intersection performs ZERO writes — a[0..n) is
// bit-for-bit unchanged — which is what lets the constraint fold try a
// narrowing and cheaply reject it as a conflict when it would empty the
// set. Safe for a and b aliasing the same array only when they are the
// identical span.
template <class T>
[[nodiscard]] std::size_t intersect_in_place(T* a, std::size_t n,
                                             const T* b, std::size_t m) {
  assert(sorted_unique(a, n) && sorted_unique(b, m));
  std::size_t out = 0, i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      a[out++] = a[i++];
      ++j;
    }
  }
  return out;
}

}  // namespace cfs
