#ifndef CAME_KG_FILTER_INDEX_H_
#define CAME_KG_FILTER_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kg/triple_store.h"

namespace came::kg {

/// Maps (head, relation) -> all known tails, over original *and* inverse
/// relations. Used for:
///   * the filtered evaluation setting (mask known true triples other than
///     the one being ranked, following Bordes et al.), and
///   * building 1-to-N multi-label training targets.
///
/// Storage is a sorted CSR layout — one flat sorted key array, one offsets
/// array, one flat tail array — instead of a per-key hash map of vectors.
/// At DRKG scale the map version costs a heap allocation plus ~2x pointer
/// overhead per (head, rel) key; the CSR version is three contiguous
/// arrays, O(log #keys) lookup, and its posting lists are sorted ranges.
class FilterIndex {
 public:
  /// `num_relations` counts base relations only; the index also stores
  /// (t, r + num_relations) -> h for every triple.
  FilterIndex(int64_t num_entities, int64_t num_relations);

  /// Indexes the triples (and their inverses). May be called repeatedly;
  /// each call merges into the index (rebuilding the CSR arrays).
  void AddTriples(const std::vector<Triple>& triples);

  /// Known tails for the (possibly inverse) relation, sorted ascending.
  /// Empty if none. The span is invalidated by the next AddTriples.
  std::span<const int64_t> Tails(int64_t head, int64_t rel) const;

  bool Contains(int64_t head, int64_t rel, int64_t tail) const;

  int64_t num_entities() const { return num_entities_; }
  int64_t num_relations_with_inverses() const { return 2 * num_relations_; }
  /// Total stored postings across every (head, rel) key.
  int64_t num_postings() const {
    return static_cast<int64_t>(values_.size());
  }

 private:
  uint64_t Key(int64_t head, int64_t rel) const {
    return static_cast<uint64_t>(head) *
               static_cast<uint64_t>(2 * num_relations_) +
           static_cast<uint64_t>(rel);
  }

  int64_t num_entities_;
  int64_t num_relations_;
  // CSR over (head, rel) keys: keys_ sorted ascending; key k's postings
  // are values_[offsets_[k] .. offsets_[k+1]), each list sorted + unique.
  std::vector<uint64_t> keys_;
  std::vector<int64_t> offsets_;  // size keys_.size() + 1
  std::vector<int64_t> values_;
};

}  // namespace came::kg

#endif  // CAME_KG_FILTER_INDEX_H_
