// A row shard of a NodeEmbedding artifact expressed as container streams —
// what pane_shardctl writes and the serving side's sharded EmbeddingStore
// path reads. A shard slices the two *candidate* matrices (Y rows for
// attribute queries, Z = Xb (Y^T Y) rows for link queries) into contiguous
// global ranges and replicates the *query-side* factors (Xf, Xb) in full,
// because queries arrive as node ids and every shard must be able to form
// any query vector. Z is derived once from the full matrices at split time
// and row-sliced — GemmRows fills each output row independently, so a
// shard's Z rows are bitwise the rows the unsharded engine would derive.
//
// Streams:
//   shard.meta (kMeta)          meta version, shard index/count, global
//                               shapes, held ranges, capability flags,
//                               method name
//   shard.xf   (kFactorMatrix)  full forward node factors, n x h
//   shard.xb   (kFactorMatrix)  full backward node factors, n x h
//   shard.y    (kFactorMatrix)  attribute-factor rows [attr_begin,
//                               attr_end), optional
//   shard.z    (kFactorMatrix)  link-candidate rows [node_begin,
//                               node_end), optional
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/store/container.h"
#include "src/store/embedding_pages.h"

namespace pane {
namespace store {

inline constexpr char kShardMetaStream[] = "shard.meta";
inline constexpr char kShardXfStream[] = "shard.xf";
inline constexpr char kShardXbStream[] = "shard.xb";
inline constexpr char kShardYStream[] = "shard.y";
inline constexpr char kShardZStream[] = "shard.z";

inline constexpr uint32_t kShardMetaVersion = 1;

/// One shard's identity inside a plan: which contiguous global candidate
/// ranges it holds, and the global shapes it was cut from. This struct is
/// also the serving layer's ShardSpec — a shard engine carries it to map
/// local candidate rows back to global ids.
struct ShardMeta {
  int64_t shard_index = 0;
  int64_t shard_count = 1;
  int64_t num_nodes = 0;       ///< global n (Xf / Xb / Z rows)
  int64_t num_attributes = 0;  ///< global d (Y rows)
  int64_t dim = 0;             ///< h, the factor width
  int64_t node_begin = 0;      ///< Z rows held: [node_begin, node_end)
  int64_t node_end = 0;
  int64_t attr_begin = 0;      ///< Y rows held: [attr_begin, attr_end)
  int64_t attr_end = 0;
  /// Global capability flags: whether the source artifact supported each
  /// query family. A shard whose local slice happens to be empty still
  /// reports the global capability, so its engine answers with an empty
  /// ranking instead of an error the merge cannot absorb.
  bool has_attributes = false;
  bool has_links = false;
  std::string method;
};

/// The shard artifact as it crosses the store boundary.
struct ShardExtents {
  ShardMeta meta;
  MatrixExtent xf;
  MatrixExtent xb;
  MatrixExtent y;  ///< [attr_begin, attr_end) rows; absent when empty
  MatrixExtent z;  ///< [node_begin, node_end) rows; absent when empty
};

/// Serializes the meta stream into `meta_buf` and registers all streams on
/// `writer`. The caller keeps `meta_buf` and every matrix extent alive
/// until ContainerWriter::WriteTo returns. xf / xb must be present.
Status AppendShardStreams(const ShardExtents& shard, std::string* meta_buf,
                          ContainerWriter* writer);

/// Decodes and validates the shard streams of an opened container: meta
/// version, range sanity (0 <= begin <= end <= global), shape-vs-payload
/// agreement for every matrix, and slice shapes matching the declared
/// ranges. Every matrix stream's pages are checksummed (Container::Read).
Result<ShardExtents> ReadShardStreams(const Container& container);

/// True iff the container holds a shard artifact (has shard.meta).
inline bool HasShardStreams(const Container& container) {
  return container.Contains(kShardMetaStream);
}

}  // namespace store
}  // namespace pane
