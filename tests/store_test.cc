// Tests for the artifact container stack: CRC32C, crash-safe file commit,
// container round trips, the corruption sweeps (every flipped byte and
// every truncation point must surface as a Status, with data-page damage
// reported as a checksum mismatch), and the container being the only
// binary format any loader accepts.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/node_embedding.h"
#include "src/common/atomic_file.h"
#include "src/graph/graph_io.h"
#include "src/serve/embedding_store.h"
#include "src/store/container.h"
#include "src/store/crc32c.h"
#include "src/store/page.h"

namespace pane {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes the superblock CRC after a deliberate header edit (the
/// version- and page-size-rejection tests need a structurally valid page 0).
void ResignSuperblock(std::string* bytes, uint32_t page_size) {
  SuperblockHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  header.crc = 0;
  std::memcpy(bytes->data(), &header, sizeof(header));
  const uint32_t crc = Crc32c(bytes->data(), page_size);
  std::memcpy(bytes->data() + offsetof(SuperblockHeader, crc), &crc,
              sizeof(crc));
}

TEST(Crc32cTest, KnownAnswer) {
  // The canonical CRC32C check value (RFC 3720 appendix / every
  // implementation's self-test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const std::string data =
      "chained checksums must equal the one-shot result for any split";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32c(data.data() + split, data.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::string data(64, '\x5a');
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(AtomicFileTest, WriteIsAtomicAndLeavesNoTemp) {
  const std::string path = TempPath("pane_atomic_test.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "first contents").ok());
  EXPECT_EQ(ReadFileBytes(path), "first contents");
  // Overwrite: the new bytes replace the old ones in one rename.
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(ReadFileBytes(path), "second");
  // No stray temp siblings.
  const std::string stem =
      std::filesystem::path(path).filename().string() + ".tmp.";
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    EXPECT_EQ(entry.path().filename().string().rfind(stem, 0),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, AbandonedTempIsUnlinked) {
  const std::string path = TempPath("pane_atomic_abandon.bin");
  {
    auto file = AtomicFile::Create(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->Append("doomed", 6).ok());
    // Destructor without Commit: the temp must vanish, the target must not
    // appear.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ContainerWriterTest, RejectsBadStreams) {
  ContainerWriter writer;
  double x = 1.0;
  EXPECT_TRUE(writer.AddStream("", PageType::kMeta, &x, 8).IsInvalidArgument());
  EXPECT_TRUE(writer
                  .AddStream(std::string(kMaxStreamNameLength + 1, 'a'),
                             PageType::kMeta, &x, 8)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      writer.AddStream("sb", PageType::kSuperblock, &x, 8).IsInvalidArgument());
  EXPECT_TRUE(writer.AddStream("neg", PageType::kMeta, &x, -1)
                  .IsInvalidArgument());
  EXPECT_TRUE(writer.AddStream("null", PageType::kMeta, nullptr, 8)
                  .IsInvalidArgument());
  ASSERT_TRUE(writer.AddStream("ok", PageType::kMeta, &x, 8).ok());
  EXPECT_EQ(writer.AddStream("ok", PageType::kMeta, &x, 8).code(),
            StatusCode::kAlreadyExists);
  // A 31-character name (the maximum) is legal.
  EXPECT_TRUE(writer
                  .AddStream(std::string(kMaxStreamNameLength, 'n'),
                             PageType::kMeta, &x, 8)
                  .ok());
}

/// Builds the sweep fixture: page_size 4096, one stream of every data page
/// type, sized to cover 0-byte, sub-page, exact-page and multi-page extents.
struct Fixture {
  std::string meta = "meta-record";                  // sub-page kMeta
  std::vector<int64_t> csr = [] {                    // exactly one page
    std::vector<int64_t> v(4096 / sizeof(int64_t));
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i * 3);
    return v;
  }();
  std::vector<double> factors = [] {                 // multi-page
    std::vector<double> v(700);
    for (size_t i = 0; i < v.size(); ++i) v[i] = 0.25 * static_cast<double>(i);
    return v;
  }();
  std::vector<float> ivf = [] {                      // sub-page kIvfList
    std::vector<float> v(50);
    for (size_t i = 0; i < v.size(); ++i) v[i] = 1.5f * static_cast<float>(i);
    return v;
  }();

  Status WriteTo(const std::string& path) const {
    ContainerWriter writer(/*page_size=*/4096);
    PANE_RETURN_NOT_OK(writer.AddStream("fix.meta", PageType::kMeta,
                                        meta.data(),
                                        static_cast<int64_t>(meta.size())));
    PANE_RETURN_NOT_OK(
        writer.AddStream("fix.empty", PageType::kMeta, nullptr, 0));
    PANE_RETURN_NOT_OK(writer.AddStream(
        "fix.csr", PageType::kGraphCsr, csr.data(),
        static_cast<int64_t>(csr.size() * sizeof(int64_t))));
    PANE_RETURN_NOT_OK(writer.AddStream(
        "fix.factors", PageType::kFactorMatrix, factors.data(),
        static_cast<int64_t>(factors.size() * sizeof(double))));
    PANE_RETURN_NOT_OK(
        writer.AddStream("fix.ivf", PageType::kIvfList, ivf.data(),
                         static_cast<int64_t>(ivf.size() * sizeof(float))));
    return writer.WriteTo(path);
  }
};

TEST(ContainerTest, RoundTripAllStreamShapes) {
  const std::string path = TempPath("pane_container_roundtrip.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(path).ok());

  auto opened = Container::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const Container& c = *opened;
  EXPECT_EQ(c.page_size(), 4096u);
  EXPECT_EQ(c.streams().size(), 5u);
  EXPECT_TRUE(c.VerifyAll().ok());

  auto meta = c.Read("fix.meta");
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(std::string(meta->data, static_cast<size_t>(meta->bytes)),
            fix.meta);
  EXPECT_EQ(meta->type, PageType::kMeta);
  // Payloads are page-aligned in the mapping (the zero-copy guarantee).
  EXPECT_EQ(reinterpret_cast<uintptr_t>(meta->data) % 4096, 0u);

  auto empty = c.Read("fix.empty");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->bytes, 0);

  auto csr = c.ReadArray<int64_t>("fix.csr");
  ASSERT_TRUE(csr.ok()) << csr.status();
  ASSERT_EQ(csr->count, static_cast<int64_t>(fix.csr.size()));
  EXPECT_EQ(std::memcmp(csr->data, fix.csr.data(),
                        fix.csr.size() * sizeof(int64_t)),
            0);

  auto factors = c.ReadArray<double>("fix.factors");
  ASSERT_TRUE(factors.ok()) << factors.status();
  ASSERT_EQ(factors->count, static_cast<int64_t>(fix.factors.size()));
  EXPECT_EQ(std::memcmp(factors->data, fix.factors.data(),
                        fix.factors.size() * sizeof(double)),
            0);
  EXPECT_EQ(factors->type, PageType::kFactorMatrix);

  auto ivf = c.ReadArray<float>("fix.ivf");
  ASSERT_TRUE(ivf.ok()) << ivf.status();
  ASSERT_EQ(ivf->count, static_cast<int64_t>(fix.ivf.size()));
  EXPECT_EQ(
      std::memcmp(ivf->data, fix.ivf.data(), fix.ivf.size() * sizeof(float)),
      0);

  EXPECT_TRUE(c.Read("fix.absent").status().IsNotFound());
  // Payload not a multiple of the element size.
  EXPECT_TRUE(c.ReadArray<double>("fix.meta").status().IsIOError());
  std::filesystem::remove(path);
}

TEST(ContainerTest, RewriteIsBitwiseDeterministic) {
  const std::string a = TempPath("pane_container_det_a.ctn");
  const std::string b = TempPath("pane_container_det_b.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(a).ok());
  ASSERT_TRUE(fix.WriteTo(b).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

TEST(ContainerTest, BitFlipSweepDetectsEveryByte) {
  const std::string clean_path = TempPath("pane_container_sweep.ctn");
  const std::string dirty_path = TempPath("pane_container_sweep_dirty.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(clean_path).ok());
  const std::string clean = ReadFileBytes(clean_path);
  // Superblock + table + data pages for every data page type: the fixture
  // spans kMeta, kGraphCsr, kFactorMatrix and kIvfList extents.
  ASSERT_EQ(clean.size() % 4096, 0u);

  // The first 16 bytes are magic/version/page_size, rejected before any
  // checksum can run; everything after them must be caught by a CRC.
  constexpr size_t kPreChecksumBytes = 16;
  std::string dirty = clean;
  for (size_t i = 0; i < clean.size(); ++i) {
    dirty[i] = static_cast<char>(dirty[i] ^ 0xFF);
    WriteFileBytes(dirty_path, dirty);
    auto opened = Container::Open(dirty_path);
    Status failure = Status::OK();
    if (!opened.ok()) {
      failure = opened.status();
    } else {
      failure = opened->VerifyAll();
    }
    ASSERT_FALSE(failure.ok()) << "flipped byte " << i << " went undetected";
    if (i >= kPreChecksumBytes) {
      EXPECT_NE(failure.message().find("checksum"), std::string::npos)
          << "byte " << i << " reported as: " << failure.message();
    }
    dirty[i] = clean[i];
  }
  std::filesystem::remove(clean_path);
  std::filesystem::remove(dirty_path);
}

TEST(ContainerTest, TruncationSweepAlwaysFails) {
  const std::string clean_path = TempPath("pane_container_trunc.ctn");
  const std::string short_path = TempPath("pane_container_trunc_cut.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(clean_path).ok());
  const std::string clean = ReadFileBytes(clean_path);

  // Every page boundary, the bytes just around them, and a few odd cuts.
  std::vector<size_t> cuts = {0, 1, 7, 47, 48, 100, clean.size() - 1};
  for (size_t page_end = 4096; page_end < clean.size(); page_end += 4096) {
    cuts.push_back(page_end - 1);
    cuts.push_back(page_end);
    cuts.push_back(page_end + 1);
  }
  for (size_t cut : cuts) {
    WriteFileBytes(short_path, clean.substr(0, cut));
    auto opened = Container::Open(short_path);
    EXPECT_FALSE(opened.ok()) << "truncation to " << cut << " bytes opened";
  }
  std::filesystem::remove(clean_path);
  std::filesystem::remove(short_path);
}

TEST(ContainerTest, RejectsFutureVersionEvenWithValidCrc) {
  const std::string path = TempPath("pane_container_version.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint32_t future = kFormatVersion + 1;
  std::memcpy(bytes.data() + offsetof(SuperblockHeader, version), &future,
              sizeof(future));
  ResignSuperblock(&bytes, 4096);
  WriteFileBytes(path, bytes);
  const auto opened = Container::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument()) << opened.status();
  EXPECT_NE(opened.status().message().find("version"), std::string::npos)
      << opened.status();
  std::filesystem::remove(path);
}

TEST(ContainerTest, RejectsBadPageSizeEvenWithValidCrc) {
  const std::string path = TempPath("pane_container_pagesize.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint32_t bogus = 4096 + 512;  // not a power of two
  std::memcpy(bytes.data() + offsetof(SuperblockHeader, page_size), &bogus,
              sizeof(bogus));
  ResignSuperblock(&bytes, 4096);
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(Container::Open(path).ok());
  std::filesystem::remove(path);
}

TEST(ContainerTest, RejectsLyingStreamLengthEvenWithValidCrc) {
  // A directory entry claiming 2^60 payload bytes must fail the extent
  // check at Open, before anything is sized by it.
  const std::string path = TempPath("pane_container_length.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(path).ok());
  std::string bytes = ReadFileBytes(path);
  const size_t factors_entry = sizeof(SuperblockHeader) + 3 * sizeof(StreamEntry);
  ASSERT_STREQ(bytes.data() + factors_entry, "fix.factors");
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + factors_entry +
                  offsetof(StreamEntry, payload_bytes),
              &huge, sizeof(huge));
  ResignSuperblock(&bytes, 4096);
  WriteFileBytes(path, bytes);
  const auto opened = Container::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status();
  EXPECT_NE(opened.status().message().find("payload size"), std::string::npos)
      << opened.status();
  std::filesystem::remove(path);
}

TEST(ContainerTest, NonContainerIsInvalidArgumentAndCutContainerIsIOError) {
  const std::string path = TempPath("pane_container_kind.ctn");
  WriteFileBytes(path, "definitely not a container");
  EXPECT_TRUE(Container::Open(path).status().IsInvalidArgument());
  WriteFileBytes(path, "");
  EXPECT_TRUE(Container::Open(path).status().IsInvalidArgument());
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(path).ok());
  WriteFileBytes(path, ReadFileBytes(path).substr(0, 20));
  EXPECT_TRUE(Container::Open(path).status().IsIOError());
  std::filesystem::remove(path);
}

TEST(RetiredFormatsTest, LegacyMagicFailsEveryLoader) {
  // The retired embedding layouts (PANENEB1 v1/v2, PaneEmbedding's
  // PANEEMB1) and graph snapshot (PANEGR01) have no reader left: a file
  // starting with their magic is refused with a Status by every loader.
  const std::string path = TempPath("pane_retired_format.bin");
  for (const std::string magic : {"PANENEB1", "PANEEMB1", "PANEGR01"}) {
    // The magic alone, and the magic followed by a plausible legacy header
    // (version 2, a method name, padding) and a page of payload.
    std::string header = magic;
    const uint32_t version = 2, method_len = 4;
    header.append(reinterpret_cast<const char*>(&version), 4);
    header.append(reinterpret_cast<const char*>(&method_len), 4);
    header += "pane";
    header.append(4096, '\0');
    for (const std::string& bytes : {magic, header}) {
      WriteFileBytes(path, bytes);
      const std::string what = magic + " (" + std::to_string(bytes.size()) +
                               " bytes)";
      const auto embedding = NodeEmbedding::Load(path);
      EXPECT_TRUE(embedding.status().IsInvalidArgument())
          << what << ": " << embedding.status();
      const auto store = serve::EmbeddingStore::Open(path);
      EXPECT_TRUE(store.status().IsInvalidArgument())
          << what << ": " << store.status();
      const auto graph = LoadGraphAuto(path);
      EXPECT_FALSE(graph.ok()) << what;
    }
  }
  std::filesystem::remove(path);
}

TEST(ContainerTest, MagicProbes) {
  const std::string path = TempPath("pane_container_magic.ctn");
  Fixture fix;
  ASSERT_TRUE(fix.WriteTo(path).ok());
  EXPECT_TRUE(Container::PathIsContainer(path));
  const uint64_t magic = kContainerMagic;
  EXPECT_TRUE(Container::HasContainerMagic(&magic));
  const uint64_t other = 0x50414e454e454231ULL;
  EXPECT_FALSE(Container::HasContainerMagic(&other));
  EXPECT_FALSE(Container::PathIsContainer(path + ".does-not-exist"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace store
}  // namespace pane
