// Tests for the unified NodeEmbedding artifact: shape / convention checks
// and its one on-disk format, the checksummed container — byte-for-byte
// save/load round trips with and without the optional factor blocks, and
// rejection of containers whose pages are intact but whose emb.meta lies.
#include "src/api/node_embedding.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/random.h"
#include "src/serve/embedding_store.h"
#include "src/store/container.h"
#include "src/store/embedding_pages.h"
#include "test_util.h"

namespace pane {
namespace {

NodeEmbedding FeatureOnlyEmbedding(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  NodeEmbedding e;
  e.method = "tadw";
  e.features.Resize(n, dim);
  e.features.FillGaussian(&rng);
  e.link_convention = LinkConvention::kInnerProduct;
  e.attribute_convention = AttributeConvention::kCentroid;
  return e;
}

NodeEmbedding FactorEmbedding(int64_t n, int64_t d, int64_t h, uint64_t seed) {
  Rng rng(seed);
  NodeEmbedding e;
  e.method = "pane";
  e.xf.Resize(n, h);
  e.xb.Resize(n, h);
  e.y.Resize(d, h);
  e.xf.FillGaussian(&rng);
  e.xb.FillGaussian(&rng);
  e.y.FillGaussian(&rng);
  e.features.Resize(n, 2 * h);
  e.features.SetBlock(0, 0, e.xf);
  e.features.SetBlock(0, h, e.xb);
  e.link_convention = LinkConvention::kForwardBackward;
  e.attribute_convention = AttributeConvention::kFactors;
  return e;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The fields of an emb.meta stream, encoded by hand in the layout
/// src/store/embedding_pages.cc documents: u32 meta_version | i8 link |
/// i8 attr | u8 mask | u8 reserved | i64 shapes[8] (features, xf, xb, y
/// as rows, cols pairs) | u32 method_len | method bytes.
struct MetaFields {
  int8_t link = 0;
  int8_t attr = 0;
  uint8_t mask = 0;
  int64_t shapes[8] = {};
  std::string method = "tadw";

  std::string Encode() const {
    std::string out;
    const auto put = [&out](const void* p, size_t n) {
      out.append(static_cast<const char*>(p), n);
    };
    const uint32_t version = store::kEmbeddingMetaVersion;
    const uint8_t reserved = 0;
    const uint32_t method_len = static_cast<uint32_t>(method.size());
    put(&version, 4);
    put(&link, 1);
    put(&attr, 1);
    put(&mask, 1);
    put(&reserved, 1);
    put(shapes, sizeof(shapes));
    put(&method_len, 4);
    out += method;
    return out;
  }
};

/// Saves `e` as a container, then replaces its emb.meta with `meta` (all
/// page CRCs stay valid).
void SaveWithMeta(const NodeEmbedding& e, const MetaFields& meta,
                  const std::string& path) {
  ASSERT_TRUE(e.SaveContainer(path).ok());
  testing::RewriteContainerStream(
      path, store::kEmbMetaStream,
      [&meta](std::string* bytes) { *bytes = meta.Encode(); });
}

/// The meta SaveContainer writes for a feature-only artifact.
MetaFields FeatureOnlyMeta(const NodeEmbedding& e) {
  MetaFields meta;
  meta.method = e.method;
  meta.shapes[0] = e.features.rows();
  meta.shapes[1] = e.features.cols();
  return meta;
}

class NodeEmbeddingIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dir = std::filesystem::temp_directory_path();
    path_ = (dir / ("node_emb_" + std::to_string(::getpid()) + ".bin"))
                .string();
    path2_ = path_ + ".resaved";
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path2_);
  }
  std::string path_;
  std::string path2_;
};

TEST(NodeEmbeddingTest, CheckAcceptsWellFormedArtifacts) {
  EXPECT_TRUE(FeatureOnlyEmbedding(10, 8, 1).Check().ok());
  EXPECT_TRUE(FactorEmbedding(10, 6, 4, 2).Check().ok());
}

TEST(NodeEmbeddingTest, CheckRejectsMissingFeatures) {
  NodeEmbedding e;
  e.method = "broken";
  EXPECT_TRUE(e.Check().IsInvalidArgument());
}

TEST(NodeEmbeddingTest, CheckRejectsMismatchedFactorBlocks) {
  NodeEmbedding e = FactorEmbedding(10, 6, 4, 3);
  e.xb.Resize(10, 3);  // xf is 10 x 4
  EXPECT_TRUE(e.Check().IsInvalidArgument());
}

TEST(NodeEmbeddingTest, CheckRejectsConventionWithoutFactors) {
  NodeEmbedding e = FeatureOnlyEmbedding(10, 8, 4);
  e.link_convention = LinkConvention::kForwardBackward;
  EXPECT_TRUE(e.Check().IsInvalidArgument());

  NodeEmbedding e2 = FeatureOnlyEmbedding(10, 8, 5);
  e2.attribute_convention = AttributeConvention::kFactors;
  EXPECT_TRUE(e2.Check().IsInvalidArgument());
}

TEST_F(NodeEmbeddingIoTest, FeatureOnlyRoundTripIsByteForByte) {
  const NodeEmbedding e = FeatureOnlyEmbedding(20, 12, 6);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->method, "tadw");
  EXPECT_EQ(loaded->link_convention, LinkConvention::kInnerProduct);
  EXPECT_EQ(loaded->attribute_convention, AttributeConvention::kCentroid);
  EXPECT_TRUE(loaded->xf.empty());
  EXPECT_TRUE(loaded->y.empty());
  EXPECT_EQ(e.features.MaxAbsDiff(loaded->features), 0.0);

  ASSERT_TRUE(loaded->SaveContainer(path2_).ok());
  EXPECT_EQ(ReadFileBytes(path_), ReadFileBytes(path2_));
}

TEST_F(NodeEmbeddingIoTest, FactorRoundTripIsByteForByte) {
  const NodeEmbedding e = FactorEmbedding(15, 9, 4, 7);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->method, "pane");
  EXPECT_EQ(loaded->link_convention, LinkConvention::kForwardBackward);
  EXPECT_EQ(loaded->attribute_convention, AttributeConvention::kFactors);
  EXPECT_EQ(e.features.MaxAbsDiff(loaded->features), 0.0);
  EXPECT_EQ(e.xf.MaxAbsDiff(loaded->xf), 0.0);
  EXPECT_EQ(e.xb.MaxAbsDiff(loaded->xb), 0.0);
  EXPECT_EQ(e.y.MaxAbsDiff(loaded->y), 0.0);

  ASSERT_TRUE(loaded->SaveContainer(path2_).ok());
  EXPECT_EQ(ReadFileBytes(path_), ReadFileBytes(path2_));
}

TEST_F(NodeEmbeddingIoTest, SaveRejectsInconsistentArtifacts) {
  NodeEmbedding e = FactorEmbedding(10, 6, 4, 8);
  e.y.Resize(6, 3);  // column count no longer matches xf
  EXPECT_TRUE(e.SaveContainer(path_).IsInvalidArgument());
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsGarbageAndMissingFiles) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not an embedding";
  }
  EXPECT_TRUE(NodeEmbedding::Load(path_).status().IsInvalidArgument());
  EXPECT_TRUE(
      NodeEmbedding::Load("/nonexistent/file.bin").status().IsIOError());
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsImplausibleMatrixShapes) {
  // A meta claiming ~2^31 rows, or a shape whose byte count overflows
  // int64, against a 10 x 4 payload: Load must return a Status instead of
  // attempting a multi-gigabyte allocation.
  const NodeEmbedding e = FeatureOnlyEmbedding(10, 4, 10);
  for (const int64_t rows : {int64_t{1} << 31, int64_t{1} << 62}) {
    MetaFields meta = FeatureOnlyMeta(e);
    meta.shapes[0] = rows;
    SaveWithMeta(e, meta, path2_);
    const auto loaded = NodeEmbedding::Load(path2_);
    ASSERT_FALSE(loaded.ok()) << "rows " << rows;
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  }
}

TEST(NodeEmbeddingTest, CheckRejectsOverlongMethodNames) {
  NodeEmbedding e = FeatureOnlyEmbedding(5, 3, 11);
  e.method = std::string(300, 'x');
  EXPECT_TRUE(e.Check().IsInvalidArgument());
}

TEST_F(NodeEmbeddingIoTest, TruncationSweepNeverSucceeds) {
  // Strict prefixes — every length inside the superblock, then cuts spread
  // over the page table and the data pages — must yield a Status, never a
  // crash, OOM attempt, or silent success.
  const NodeEmbedding e = FactorEmbedding(7, 4, 3, 13);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  const std::string bytes = ReadFileBytes(path_);
  for (size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : bytes.size() / 37)) {
    std::ofstream out(path2_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(NodeEmbedding::Load(path2_).ok()) << "prefix " << len;
  }
}

TEST_F(NodeEmbeddingIoTest, LoadRejectsUnknownMaskBits) {
  // A future-format or corrupt presence mask must fail loudly instead of
  // silently misplacing payloads.
  const NodeEmbedding e = FeatureOnlyEmbedding(4, 3, 23);
  MetaFields meta = FeatureOnlyMeta(e);
  meta.mask = 0x88;
  SaveWithMeta(e, meta, path2_);
  const auto loaded = NodeEmbedding::Load(path2_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("presence"), std::string::npos)
      << loaded.status();
}

TEST_F(NodeEmbeddingIoTest, BothLoadersRejectUnknownConventionCodes) {
  // NodeEmbedding::Load and the serving store share one convention check.
  const NodeEmbedding e = FeatureOnlyEmbedding(4, 3, 25);
  for (const auto& [link, attr] :
       {std::pair<int8_t, int8_t>{4, 0}, {-1, 0}, {0, 3}, {0, -2}}) {
    MetaFields meta = FeatureOnlyMeta(e);
    meta.link = link;
    meta.attr = attr;
    SaveWithMeta(e, meta, path2_);
    const std::string what = link != 0 ? "link" : "attribute";
    const auto loaded = NodeEmbedding::Load(path2_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
    EXPECT_NE(loaded.status().message().find("bad " + what), std::string::npos)
        << loaded.status();
    const auto store = serve::EmbeddingStore::Open(path2_);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().message(), loaded.status().message());
  }
}

TEST_F(NodeEmbeddingIoTest, ContainerLoadDetectsFlippedBytes) {
  const NodeEmbedding e = FactorEmbedding(12, 7, 4, 33);
  ASSERT_TRUE(e.SaveContainer(path_).ok());
  std::string bytes = ReadFileBytes(path_);
  // Flip one byte in the middle of a matrix payload (the file's second
  // half is all data pages).
  bytes[bytes.size() / 2 + 17] ^= 0x20;
  {
    std::ofstream out(path2_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto corrupt = NodeEmbedding::Load(path2_);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos)
      << corrupt.status();
}

TEST_F(NodeEmbeddingIoTest, ContainerWithoutEmbeddingStreamsIsRejected) {
  // A valid container holding non-embedding streams must be refused with a
  // descriptive error, not misparsed.
  store::ContainerWriter writer;
  const double payload[4] = {1, 2, 3, 4};
  ASSERT_TRUE(writer
                  .AddStream("something.else", store::PageType::kMeta,
                             payload, sizeof(payload))
                  .ok());
  ASSERT_TRUE(writer.WriteTo(path_).ok());
  const auto loaded = NodeEmbedding::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

}  // namespace
}  // namespace pane
