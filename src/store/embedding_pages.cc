#include "src/store/embedding_pages.h"

#include <cstring>

namespace pane {
namespace store {
namespace {

// emb.meta layout (little-endian):
//   u32 meta_version | i8 link | i8 attr | u8 mask | u8 reserved |
//   i64 shapes[8] (features, xf, xb, y as rows, cols pairs) |
//   u32 method_len | method bytes
constexpr uint8_t kMaskXf = 1u << 0;
constexpr uint8_t kMaskXb = 1u << 1;
constexpr uint8_t kMaskY = 1u << 2;
constexpr uint8_t kKnownMask = kMaskXf | kMaskXb | kMaskY;

// Mirrors embedding_format::kMaxMethodNameLength (the api layer's limit);
// kept literal here so the store stays independent of src/api headers.
constexpr size_t kMaxMethodLength = 256;

constexpr int64_t kFixedMetaBytes = 4 + 4 + 8 * 8 + 4;

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

Status CheckShape(const std::string& name, int64_t rows, int64_t cols,
                  const std::string& path) {
  if (rows < 0 || cols < 0 || (rows == 0) != (cols == 0)) {
    return Status::IOError("container " + path + " stream '" + name +
                           "' has malformed shape " + std::to_string(rows) +
                           " x " + std::to_string(cols));
  }
  return Status::OK();
}

/// Fetches a matrix stream and checks its payload against the meta shape.
/// `required` distinguishes features (must exist) from masked-off factors
/// (must NOT exist — a stray stream means the artifact is inconsistent).
Status ResolveMatrix(const Container& container, const std::string& name,
                     int64_t rows, int64_t cols, bool expected,
                     MatrixExtent* out) {
  PANE_RETURN_NOT_OK(CheckShape(name, rows, cols, container.path()));
  if (!expected) {
    if (container.Contains(name)) {
      return Status::IOError("container " + container.path() + " stream '" +
                             name + "' exists but the meta mask says absent");
    }
    if (rows != 0 || cols != 0) {
      return Status::IOError("container " + container.path() +
                             " meta declares a shape for absent stream '" +
                             name + "'");
    }
    *out = MatrixExtent{};
    return Status::OK();
  }
  if (rows == 0) {
    return Status::IOError("container " + container.path() + " stream '" +
                           name + "' is present but has an empty shape");
  }
  PANE_ASSIGN_OR_RETURN(Container::StreamView view, container.Read(name));
  if (!ShapeFillsPayload(rows, cols, view.bytes)) {
    return Status::IOError(
        "container " + container.path() + " stream '" + name + "' holds " +
        std::to_string(view.bytes) + " bytes, not a " + std::to_string(rows) +
        " x " + std::to_string(cols) + " double matrix");
  }
  out->data = reinterpret_cast<const double*>(view.data);
  out->rows = rows;
  out->cols = cols;
  return Status::OK();
}

}  // namespace

Status AppendEmbeddingStreams(const EmbeddingExtents& embedding,
                              std::string* meta_buf, ContainerWriter* writer) {
  if (meta_buf == nullptr || writer == nullptr) {
    return Status::InvalidArgument(
        "AppendEmbeddingStreams needs a meta buffer and a writer");
  }
  if (!embedding.features.present()) {
    return Status::InvalidArgument(
        "embedding container needs a non-empty features matrix");
  }
  if (embedding.method.empty() ||
      embedding.method.size() > kMaxMethodLength) {
    return Status::InvalidArgument("embedding method name must be 1.." +
                                   std::to_string(kMaxMethodLength) +
                                   " characters");
  }
  uint8_t mask = 0;
  if (embedding.xf.present()) mask |= kMaskXf;
  if (embedding.xb.present()) mask |= kMaskXb;
  if (embedding.y.present()) mask |= kMaskY;

  meta_buf->clear();
  meta_buf->reserve(static_cast<size_t>(kFixedMetaBytes) +
                    embedding.method.size());
  AppendPod<uint32_t>(meta_buf, kEmbeddingMetaVersion);
  AppendPod<int8_t>(meta_buf, embedding.link_convention);
  AppendPod<int8_t>(meta_buf, embedding.attribute_convention);
  AppendPod<uint8_t>(meta_buf, mask);
  AppendPod<uint8_t>(meta_buf, 0);
  const MatrixExtent* matrices[4] = {&embedding.features, &embedding.xf,
                                     &embedding.xb, &embedding.y};
  for (const MatrixExtent* m : matrices) {
    AppendPod<int64_t>(meta_buf, m->rows);
    AppendPod<int64_t>(meta_buf, m->cols);
  }
  AppendPod<uint32_t>(meta_buf,
                      static_cast<uint32_t>(embedding.method.size()));
  meta_buf->append(embedding.method);

  PANE_RETURN_NOT_OK(writer->AddStream(
      kEmbMetaStream, PageType::kMeta, meta_buf->data(),
      static_cast<int64_t>(meta_buf->size())));
  PANE_RETURN_NOT_OK(writer->AddStream(
      kEmbFeaturesStream, PageType::kFactorMatrix, embedding.features.data,
      embedding.features.payload_bytes()));
  if (embedding.xf.present()) {
    PANE_RETURN_NOT_OK(writer->AddStream(kEmbXfStream,
                                         PageType::kFactorMatrix,
                                         embedding.xf.data,
                                         embedding.xf.payload_bytes()));
  }
  if (embedding.xb.present()) {
    PANE_RETURN_NOT_OK(writer->AddStream(kEmbXbStream,
                                         PageType::kFactorMatrix,
                                         embedding.xb.data,
                                         embedding.xb.payload_bytes()));
  }
  if (embedding.y.present()) {
    PANE_RETURN_NOT_OK(writer->AddStream(kEmbYStream, PageType::kFactorMatrix,
                                         embedding.y.data,
                                         embedding.y.payload_bytes()));
  }
  return Status::OK();
}

Result<EmbeddingExtents> ReadEmbeddingStreams(const Container& container) {
  PANE_ASSIGN_OR_RETURN(Container::StreamView meta,
                        container.Read(kEmbMetaStream));
  const std::string& path = container.path();
  if (meta.bytes < kFixedMetaBytes) {
    return Status::IOError("container " + path +
                           " embedding meta stream is truncated");
  }
  const char* p = meta.data;
  const uint32_t meta_version = ReadPod<uint32_t>(p);
  p += 4;
  if (meta_version != kEmbeddingMetaVersion) {
    return Status::IOError("container " + path +
                           " has unsupported embedding meta version " +
                           std::to_string(meta_version));
  }
  EmbeddingExtents out;
  out.link_convention = ReadPod<int8_t>(p);
  out.attribute_convention = ReadPod<int8_t>(p + 1);
  const uint8_t mask = ReadPod<uint8_t>(p + 2);
  p += 4;
  if ((mask & ~kKnownMask) != 0) {
    return Status::IOError("container " + path +
                           " embedding meta has unknown presence bits");
  }
  int64_t shapes[8];
  for (int i = 0; i < 8; ++i) {
    shapes[i] = ReadPod<int64_t>(p);
    p += 8;
  }
  const uint32_t method_len = ReadPod<uint32_t>(p);
  p += 4;
  if (method_len == 0 || method_len > kMaxMethodLength ||
      static_cast<int64_t>(method_len) != meta.bytes - kFixedMetaBytes) {
    return Status::IOError("container " + path +
                           " embedding meta has a malformed method name");
  }
  out.method.assign(p, method_len);

  PANE_RETURN_NOT_OK(ResolveMatrix(container, kEmbFeaturesStream, shapes[0],
                                   shapes[1], /*expected=*/true,
                                   &out.features));
  PANE_RETURN_NOT_OK(ResolveMatrix(container, kEmbXfStream, shapes[2],
                                   shapes[3], (mask & kMaskXf) != 0,
                                   &out.xf));
  PANE_RETURN_NOT_OK(ResolveMatrix(container, kEmbXbStream, shapes[4],
                                   shapes[5], (mask & kMaskXb) != 0,
                                   &out.xb));
  PANE_RETURN_NOT_OK(ResolveMatrix(container, kEmbYStream, shapes[6],
                                   shapes[7], (mask & kMaskY) != 0,
                                   &out.y));
  return out;
}

}  // namespace store
}  // namespace pane
