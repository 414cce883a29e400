// Immutable, memory-mapped view of a NodeEmbedding artifact — the serving
// subsystem's storage layer. Where NodeEmbedding::Load copies the artifact
// into private heap memory, an EmbeddingStore maps the store:: container
// that NodeEmbedding::SaveContainer (or pane_shardctl, for one shard) wrote
// read-only (PROT_READ, MAP_SHARED): the doubles are backed by the page
// cache, every server process mapping the same artifact shares one physical
// copy, and opening costs O(header) plus one checksum pass over the pages.
// The file descriptor is closed at open time, so the store keeps working
// after the path is unlinked or rotated from under it.
//
// Container stream payloads are page-aligned, so every factor view points
// straight into the mapping: nothing is copied at open.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/api/embedding_format.h"
#include "src/common/status.h"
#include "src/matrix/dense_matrix.h"
#include "src/store/container.h"
#include "src/store/shard_pages.h"

namespace pane {
namespace serve {

class EmbeddingStore {
 public:
  EmbeddingStore() = default;
  EmbeddingStore(const EmbeddingStore&) = delete;
  EmbeddingStore& operator=(const EmbeddingStore&) = delete;
  EmbeddingStore(EmbeddingStore&&) = default;
  EmbeddingStore& operator=(EmbeddingStore&&) = default;

  /// Maps a store:: container holding a NodeEmbedding artifact (written by
  /// NodeEmbedding::SaveContainer) or one shard of it (pane_shardctl). Every
  /// shape is validated against its stream's payload, so a corrupt artifact
  /// yields a Status, never an OOM or an out-of-bounds read; a file that is
  /// not a container is InvalidArgument. Every stream's pages are
  /// CRC32C-verified at open.
  static Result<EmbeddingStore> Open(const std::string& path);

  const std::string& method() const { return method_; }
  LinkConvention link_convention() const { return link_convention_; }
  AttributeConvention attribute_convention() const {
    return attribute_convention_;
  }

  /// Factor views into the shared mapping (empty views when the artifact
  /// lacks the block).
  ConstMatrixView features() const { return features_; }
  ConstMatrixView xf() const { return xf_; }
  ConstMatrixView xb() const { return xb_; }
  ConstMatrixView y() const { return y_; }
  /// Pre-derived link-candidate rows (shard containers only; the unsharded
  /// open path leaves this empty and the engine derives Z itself).
  ConstMatrixView z() const { return z_; }

  /// True when the artifact is one shard of a split embedding (a shard.*
  /// container written by pane_shardctl). A sharded store has no features
  /// block: it holds the full xf/xb plus the y/z slices of its ranges.
  bool sharded() const { return shard_ != nullptr; }
  /// The shard's plan position and held ranges; only valid when sharded().
  const store::ShardMeta& shard() const { return *shard_; }

  int64_t num_nodes() const {
    return sharded() ? shard_->num_nodes : features_.rows();
  }
  int64_t dim() const {
    return sharded() ? shard_->dim : features_.cols();
  }
  /// Global attribute count: for a shard this is the plan's d, not the
  /// local slice height (y().rows()).
  int64_t num_attributes() const {
    return sharded() ? shard_->num_attributes : y_.rows();
  }
  bool has_node_factors() const {
    return xf_.rows() > 0 && xb_.rows() > 0;
  }
  bool has_attribute_factors() const {
    return has_node_factors() && y_.rows() > 0;
  }

  int64_t mapped_bytes() const {
    return container_ == nullptr
               ? 0
               : container_->num_pages() *
                     static_cast<int64_t>(container_->page_size());
  }

 private:
  Status FinishOpen(const std::string& path);

  // Holds the mapping every view points into.
  std::unique_ptr<store::Container> container_;
  ConstMatrixView features_, xf_, xb_, y_, z_;
  // Set when the container holds a shard artifact (shard.* streams).
  std::unique_ptr<store::ShardMeta> shard_;
  std::string method_;
  LinkConvention link_convention_ = LinkConvention::kInnerProduct;
  AttributeConvention attribute_convention_ = AttributeConvention::kCentroid;
};

}  // namespace serve
}  // namespace pane
