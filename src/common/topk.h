// Deterministic top-k selection shared by the serving-side query engine
// (src/serve/query_engine.h), the router's merge, and the offline
// reference scan (pane_topk). All of them rank by the same strict total
// order — score descending, index ascending — so the same (index, score)
// stream produces the same top-k whichever selection algorithm runs, and
// results are reproducible across thread counts, tile widths, and batch
// splits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace pane {

/// \brief (index, score) pairs sorted by descending score; ties broken by
/// ascending index.
using Ranking = std::vector<std::pair<int64_t, double>>;

/// \brief The ranking order: score descending, index ascending. A strict
/// total order over distinct indices, so any selection algorithm that
/// respects it returns the same top-k set in the same order.
inline bool RankBetter(const std::pair<int64_t, double>& a,
                       const std::pair<int64_t, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// \brief Keeps the k best pairs out of `candidates`: nth_element to the
/// cut, then a full sort of the kept prefix (O(n + k log k), no full sort
/// of the candidate set).
inline Ranking SelectTopK(Ranking candidates, int64_t k) {
  const int64_t kk =
      std::min<int64_t>(k, static_cast<int64_t>(candidates.size()));
  if (kk < static_cast<int64_t>(candidates.size())) {
    std::nth_element(candidates.begin(), candidates.begin() + kk,
                     candidates.end(), RankBetter);
  }
  std::sort(candidates.begin(), candidates.begin() + kk, RankBetter);
  candidates.resize(static_cast<size_t>(kk));
  return candidates;
}

/// \brief Deterministic k-way merge of per-shard top-k lists. Each input
/// list must already be sorted by RankBetter (what SelectTopK / TopKHeap::
/// Take produce); indices must be globally unique across lists (each shard
/// ranks a disjoint candidate range). The merge walks a cursor heap over
/// the list heads, so the global order is exactly the order a single scan
/// over the union would have produced: a sharded answer is byte-identical
/// to the unsharded one. O(k log s) for s lists.
inline Ranking MergeTopK(const std::vector<Ranking>& lists, int64_t k) {
  // Heap of (list, position) cursors; the best current head is popped first.
  std::vector<std::pair<size_t, size_t>> cursors;
  cursors.reserve(lists.size());
  for (size_t l = 0; l < lists.size(); ++l) {
    if (!lists[l].empty()) cursors.emplace_back(l, 0);
  }
  const auto cursor_worse = [&lists](const std::pair<size_t, size_t>& a,
                                     const std::pair<size_t, size_t>& b) {
    // std::push_heap keeps the max on top, so "a worse than b" puts the
    // RankBetter-best cursor at the front.
    return RankBetter(lists[b.first][b.second], lists[a.first][a.second]);
  };
  std::make_heap(cursors.begin(), cursors.end(), cursor_worse);
  int64_t total = 0;
  for (const Ranking& list : lists) total += static_cast<int64_t>(list.size());
  Ranking merged;
  merged.reserve(static_cast<size_t>(std::max<int64_t>(
      0, std::min<int64_t>(k, total))));
  while (static_cast<int64_t>(merged.size()) < k && !cursors.empty()) {
    std::pop_heap(cursors.begin(), cursors.end(), cursor_worse);
    auto [l, p] = cursors.back();
    cursors.pop_back();
    merged.push_back(lists[l][p]);
    if (p + 1 < lists[l].size()) {
      cursors.emplace_back(l, p + 1);
      std::push_heap(cursors.begin(), cursors.end(), cursor_worse);
    }
  }
  return merged;
}

/// \brief Streaming bounded selection: offer any number of (index, score)
/// pairs, take the k best in ranking order. A size-k min-heap whose top is
/// the worst kept pair, so the common reject case is one comparison.
/// Equivalent to SelectTopK over the same stream (the order is total).
class TopKHeap {
 public:
  explicit TopKHeap(int64_t k) : k_(k) { heap_.reserve(static_cast<size_t>(k)); }

  /// Current worst kept pair is heap_.front() once full.
  void Offer(int64_t index, double score) {
    if (static_cast<int64_t>(heap_.size()) < k_) {
      heap_.emplace_back(index, score);
      std::push_heap(heap_.begin(), heap_.end(), RankBetter);
      return;
    }
    if (!RankBetter({index, score}, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), RankBetter);
    heap_.back() = {index, score};
    std::push_heap(heap_.begin(), heap_.end(), RankBetter);
  }

  /// Extracts the kept pairs sorted best-first, leaving the heap empty.
  Ranking Take() {
    std::sort(heap_.begin(), heap_.end(), RankBetter);
    return std::move(heap_);
  }

  int64_t size() const { return static_cast<int64_t>(heap_.size()); }
  bool AtCapacity() const { return size() == k_; }

  /// The worst kept pair — the scan threshold: once AtCapacity(), a
  /// candidate can only enter if RankBetter(candidate, Worst()). Only
  /// valid when the heap is non-empty.
  const std::pair<int64_t, double>& Worst() const { return heap_.front(); }

 private:
  int64_t k_;
  Ranking heap_;  // min-heap under RankBetter: front() is the worst kept
};

}  // namespace pane
