#include "kg/filter_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace came::kg {

FilterIndex::FilterIndex(int64_t num_entities, int64_t num_relations)
    : num_entities_(num_entities), num_relations_(num_relations) {
  CAME_CHECK_GT(num_entities, 0);
  CAME_CHECK_GT(num_relations, 0);
  offsets_.push_back(0);
}

void FilterIndex::AddTriples(const std::vector<Triple>& triples) {
  // Expand the current CSR back into (key, tail) pairs, append the new
  // postings, and rebuild. AddTriples is a build-time call (per split);
  // queries dominate, so the layout is optimised for them.
  std::vector<std::pair<uint64_t, int64_t>> pairs;
  pairs.reserve(values_.size() + 2 * triples.size());
  for (size_t k = 0; k < keys_.size(); ++k) {
    for (int64_t i = offsets_[k]; i < offsets_[k + 1]; ++i) {
      pairs.emplace_back(keys_[k], values_[i]);
    }
  }
  for (const Triple& t : triples) {
    CAME_CHECK_LT(t.rel, num_relations_) << "index base relations only";
    pairs.emplace_back(Key(t.head, t.rel), t.tail);
    pairs.emplace_back(Key(t.tail, t.rel + num_relations_), t.head);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  keys_.clear();
  offsets_.assign(1, 0);
  values_.clear();
  values_.reserve(pairs.size());
  for (const auto& [key, tail] : pairs) {
    if (keys_.empty() || keys_.back() != key) {
      keys_.push_back(key);
      offsets_.push_back(offsets_.back());
    }
    values_.push_back(tail);
    ++offsets_.back();
  }
}

std::span<const int64_t> FilterIndex::Tails(int64_t head, int64_t rel) const {
  const uint64_t key = Key(head, rel);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return {};
  const size_t k = static_cast<size_t>(it - keys_.begin());
  return {values_.data() + offsets_[k],
          static_cast<size_t>(offsets_[k + 1] - offsets_[k])};
}

bool FilterIndex::Contains(int64_t head, int64_t rel, int64_t tail) const {
  const std::span<const int64_t> v = Tails(head, rel);
  return std::binary_search(v.begin(), v.end(), tail);
}

}  // namespace came::kg
