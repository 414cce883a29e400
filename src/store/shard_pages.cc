#include "src/store/shard_pages.h"

#include <cstring>

namespace pane {
namespace store {
namespace {

// shard.meta layout (little-endian):
//   u32 meta_version | u8 has_attributes | u8 has_links | u16 reserved |
//   i64 shard_index | i64 shard_count | i64 num_nodes | i64 num_attributes |
//   i64 dim | i64 node_begin | i64 node_end | i64 attr_begin | i64 attr_end |
//   u32 method_len | method bytes
constexpr size_t kMaxMethodLength = 256;
constexpr int64_t kFixedMetaBytes = 4 + 4 + 9 * 8 + 4;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T ReadPod(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

Status CheckRange(const char* what, int64_t begin, int64_t end, int64_t limit,
                  const std::string& path) {
  if (begin < 0 || end < begin || end > limit) {
    return Status::IOError("container " + path + " shard meta has a bad " +
                           what + " range [" + std::to_string(begin) + ", " +
                           std::to_string(end) + ") over " +
                           std::to_string(limit));
  }
  return Status::OK();
}

/// Fetches one matrix stream whose expected shape is fully determined by
/// the meta (rows may be 0, meaning the stream must be absent).
Status ResolveSlice(const Container& container, const std::string& name,
                    int64_t rows, int64_t cols, MatrixExtent* out) {
  if (rows == 0) {
    if (container.Contains(name)) {
      return Status::IOError("container " + container.path() + " stream '" +
                             name + "' exists but its shard range is empty");
    }
    *out = MatrixExtent{};
    return Status::OK();
  }
  PANE_ASSIGN_OR_RETURN(Container::StreamView view, container.Read(name));
  if (!ShapeFillsPayload(rows, cols, view.bytes)) {
    return Status::IOError(
        "container " + container.path() + " stream '" + name + "' holds " +
        std::to_string(view.bytes) + " bytes but its shard range needs a " +
        std::to_string(rows) + " x " + std::to_string(cols) +
        " double matrix");
  }
  out->data = reinterpret_cast<const double*>(view.data);
  out->rows = rows;
  out->cols = cols;
  return Status::OK();
}

}  // namespace

Status AppendShardStreams(const ShardExtents& shard, std::string* meta_buf,
                          ContainerWriter* writer) {
  if (meta_buf == nullptr || writer == nullptr) {
    return Status::InvalidArgument(
        "AppendShardStreams needs a meta buffer and a writer");
  }
  const ShardMeta& m = shard.meta;
  if (!shard.xf.present() || !shard.xb.present()) {
    return Status::InvalidArgument(
        "shard container needs the full xf and xb factors");
  }
  if (m.method.empty() || m.method.size() > kMaxMethodLength) {
    return Status::InvalidArgument("shard method name must be 1.." +
                                   std::to_string(kMaxMethodLength) +
                                   " characters");
  }
  if (m.shard_count <= 0 || m.shard_index < 0 ||
      m.shard_index >= m.shard_count) {
    return Status::InvalidArgument("shard index " +
                                   std::to_string(m.shard_index) +
                                   " outside 0.." +
                                   std::to_string(m.shard_count - 1));
  }
  if (shard.y.rows != m.attr_end - m.attr_begin ||
      shard.z.rows != m.node_end - m.node_begin) {
    return Status::InvalidArgument(
        "shard slice shapes disagree with the declared ranges");
  }

  meta_buf->clear();
  meta_buf->reserve(static_cast<size_t>(kFixedMetaBytes) + m.method.size());
  AppendPod<uint32_t>(meta_buf, kShardMetaVersion);
  AppendPod<uint8_t>(meta_buf, m.has_attributes ? 1 : 0);
  AppendPod<uint8_t>(meta_buf, m.has_links ? 1 : 0);
  AppendPod<uint16_t>(meta_buf, 0);
  AppendPod<int64_t>(meta_buf, m.shard_index);
  AppendPod<int64_t>(meta_buf, m.shard_count);
  AppendPod<int64_t>(meta_buf, m.num_nodes);
  AppendPod<int64_t>(meta_buf, m.num_attributes);
  AppendPod<int64_t>(meta_buf, m.dim);
  AppendPod<int64_t>(meta_buf, m.node_begin);
  AppendPod<int64_t>(meta_buf, m.node_end);
  AppendPod<int64_t>(meta_buf, m.attr_begin);
  AppendPod<int64_t>(meta_buf, m.attr_end);
  AppendPod<uint32_t>(meta_buf, static_cast<uint32_t>(m.method.size()));
  meta_buf->append(m.method);

  PANE_RETURN_NOT_OK(writer->AddStream(kShardMetaStream, PageType::kMeta,
                                       meta_buf->data(),
                                       static_cast<int64_t>(meta_buf->size())));
  PANE_RETURN_NOT_OK(writer->AddStream(kShardXfStream, PageType::kFactorMatrix,
                                       shard.xf.data,
                                       shard.xf.payload_bytes()));
  PANE_RETURN_NOT_OK(writer->AddStream(kShardXbStream, PageType::kFactorMatrix,
                                       shard.xb.data,
                                       shard.xb.payload_bytes()));
  if (shard.y.present()) {
    PANE_RETURN_NOT_OK(writer->AddStream(kShardYStream,
                                         PageType::kFactorMatrix,
                                         shard.y.data,
                                         shard.y.payload_bytes()));
  }
  if (shard.z.present()) {
    PANE_RETURN_NOT_OK(writer->AddStream(kShardZStream,
                                         PageType::kFactorMatrix,
                                         shard.z.data,
                                         shard.z.payload_bytes()));
  }
  return Status::OK();
}

Result<ShardExtents> ReadShardStreams(const Container& container) {
  PANE_ASSIGN_OR_RETURN(Container::StreamView meta,
                        container.Read(kShardMetaStream));
  const std::string& path = container.path();
  if (meta.bytes < kFixedMetaBytes) {
    return Status::IOError("container " + path +
                           " shard meta stream is truncated");
  }
  const char* p = meta.data;
  const uint32_t meta_version = ReadPod<uint32_t>(p);
  p += 4;
  if (meta_version != kShardMetaVersion) {
    return Status::IOError("container " + path +
                           " has unsupported shard meta version " +
                           std::to_string(meta_version));
  }
  ShardExtents out;
  ShardMeta& m = out.meta;
  m.has_attributes = ReadPod<uint8_t>(p) != 0;
  m.has_links = ReadPod<uint8_t>(p + 1) != 0;
  p += 4;
  int64_t fields[9];
  for (int i = 0; i < 9; ++i) {
    fields[i] = ReadPod<int64_t>(p);
    p += 8;
  }
  m.shard_index = fields[0];
  m.shard_count = fields[1];
  m.num_nodes = fields[2];
  m.num_attributes = fields[3];
  m.dim = fields[4];
  m.node_begin = fields[5];
  m.node_end = fields[6];
  m.attr_begin = fields[7];
  m.attr_end = fields[8];
  const uint32_t method_len = ReadPod<uint32_t>(p);
  p += 4;
  if (method_len == 0 || method_len > kMaxMethodLength ||
      static_cast<int64_t>(method_len) != meta.bytes - kFixedMetaBytes) {
    return Status::IOError("container " + path +
                           " shard meta has a malformed method name");
  }
  m.method.assign(p, method_len);

  if (m.shard_count <= 0 || m.shard_index < 0 ||
      m.shard_index >= m.shard_count) {
    return Status::IOError("container " + path + " shard meta places shard " +
                           std::to_string(m.shard_index) + " outside 0.." +
                           std::to_string(m.shard_count - 1));
  }
  if (m.num_nodes <= 0 || m.dim <= 0 || m.num_attributes < 0) {
    return Status::IOError("container " + path +
                           " shard meta has non-positive global shapes");
  }
  PANE_RETURN_NOT_OK(CheckRange("node", m.node_begin, m.node_end,
                                m.num_nodes, path));
  PANE_RETURN_NOT_OK(CheckRange("attribute", m.attr_begin, m.attr_end,
                                m.num_attributes, path));

  PANE_RETURN_NOT_OK(ResolveSlice(container, kShardXfStream, m.num_nodes,
                                  m.dim, &out.xf));
  PANE_RETURN_NOT_OK(ResolveSlice(container, kShardXbStream, m.num_nodes,
                                  m.dim, &out.xb));
  PANE_RETURN_NOT_OK(ResolveSlice(container, kShardYStream,
                                  m.attr_end - m.attr_begin, m.dim, &out.y));
  PANE_RETURN_NOT_OK(ResolveSlice(container, kShardZStream,
                                  m.node_end - m.node_begin, m.dim, &out.z));
  return out;
}

}  // namespace store
}  // namespace pane
