#include "src/store/container.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/common/atomic_file.h"
#include "src/store/crc32c.h"

namespace pane {
namespace store {
namespace {

std::string HexCrc(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

bool IsValidDataPageType(uint8_t type) {
  return type >= static_cast<uint8_t>(PageType::kMeta) &&
         type <= static_cast<uint8_t>(PageType::kIvfList);
}

Status ValidatePageSize(uint32_t page_size, const std::string& context) {
  if (page_size < kMinPageSize || page_size > kMaxPageSize ||
      (page_size & (page_size - 1)) != 0) {
    return Status::InvalidArgument(
        context + ": page size " + std::to_string(page_size) +
        " is not a power of two in [" + std::to_string(kMinPageSize) + ", " +
        std::to_string(kMaxPageSize) + "]");
  }
  return Status::OK();
}

int64_t PagesFor(int64_t bytes, uint32_t page_size) {
  return (bytes + page_size - 1) / page_size;
}

/// CRC32C of a page whose on-disk image is `payload` followed by zero
/// padding to `page_size`. Extends the payload checksum through a shared
/// zero buffer instead of materializing the padded page.
uint32_t PageCrc(const char* payload, int64_t payload_bytes,
                 uint32_t page_size, const std::vector<char>& zeros) {
  uint32_t crc = Crc32c(payload, static_cast<size_t>(payload_bytes));
  const int64_t pad = static_cast<int64_t>(page_size) - payload_bytes;
  if (pad > 0) crc = Crc32c(zeros.data(), static_cast<size_t>(pad), crc);
  return crc;
}

}  // namespace

Status ContainerWriter::AddStream(const std::string& name, PageType type,
                                  const void* data, int64_t bytes) {
  if (name.empty() || name.size() > kMaxStreamNameLength) {
    return Status::InvalidArgument(
        "container stream name '" + name + "' must be 1.." +
        std::to_string(kMaxStreamNameLength) + " characters");
  }
  if (!IsValidDataPageType(static_cast<uint8_t>(type))) {
    return Status::InvalidArgument("container stream '" + name +
                                   "' has non-data page type " +
                                   std::to_string(static_cast<int>(type)));
  }
  if (bytes < 0) {
    return Status::InvalidArgument("container stream '" + name +
                                   "' has negative size");
  }
  if (bytes > 0 && data == nullptr) {
    return Status::InvalidArgument("container stream '" + name +
                                   "' is non-empty but has no data pointer");
  }
  for (const PendingStream& s : streams_) {
    if (s.name == name) {
      return Status::AlreadyExists("container stream '" + name +
                                   "' added twice");
    }
  }
  streams_.push_back(
      PendingStream{name, type, static_cast<const char*>(data), bytes});
  return Status::OK();
}

Status ContainerWriter::WriteTo(const std::string& path) const {
  PANE_RETURN_NOT_OK(ValidatePageSize(page_size_, "ContainerWriter"));
  if (stream_count() > MaxStreamsForPageSize(page_size_)) {
    return Status::InvalidArgument(
        "container holds " + std::to_string(stream_count()) +
        " streams; a superblock page of " + std::to_string(page_size_) +
        " bytes fits at most " +
        std::to_string(MaxStreamsForPageSize(page_size_)));
  }

  // Layout: [superblock][page table][stream 0 pages][stream 1 pages]...
  const int64_t entries_per_table_page = TableEntriesPerPage(page_size_);
  int64_t data_pages = 0;
  for (const PendingStream& s : streams_) {
    data_pages += PagesFor(s.bytes, page_size_);
  }
  const int64_t table_pages =
      (data_pages + entries_per_table_page - 1) / entries_per_table_page;
  const int64_t data_first = 1 + table_pages;
  const int64_t num_pages = data_first + data_pages;

  std::vector<StreamEntry> directory(streams_.size());
  std::vector<PageTableEntry> table(static_cast<size_t>(data_pages));
  const std::vector<char> zeros(page_size_, 0);

  int64_t next_page = data_first;
  for (size_t i = 0; i < streams_.size(); ++i) {
    const PendingStream& s = streams_[i];
    StreamEntry& entry = directory[i];
    std::memset(entry.name, 0, sizeof(entry.name));
    std::memcpy(entry.name, s.name.data(), s.name.size());
    entry.first_page = static_cast<uint64_t>(s.bytes > 0 ? next_page : 0);
    entry.page_count = static_cast<uint64_t>(PagesFor(s.bytes, page_size_));
    entry.payload_bytes = static_cast<uint64_t>(s.bytes);
    entry.type = static_cast<uint8_t>(s.type);
    for (int64_t p = 0; p < static_cast<int64_t>(entry.page_count); ++p) {
      const int64_t offset = p * page_size_;
      const int64_t payload =
          std::min<int64_t>(page_size_, s.bytes - offset);
      PageTableEntry& te = table[static_cast<size_t>(next_page - data_first)];
      te.crc = PageCrc(s.data + offset, payload, page_size_, zeros);
      te.type = static_cast<uint8_t>(s.type);
      ++next_page;
    }
  }

  PANE_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));

  // Superblock page: header + stream directory, checksummed with the crc
  // field zeroed.
  std::vector<char> page(page_size_, 0);
  SuperblockHeader sb;
  sb.page_size = page_size_;
  sb.num_pages = static_cast<uint64_t>(num_pages);
  sb.page_table_first = 1;
  sb.page_table_pages = static_cast<uint64_t>(table_pages);
  sb.stream_count = static_cast<uint32_t>(streams_.size());
  sb.crc = 0;
  std::memcpy(page.data(), &sb, sizeof(sb));
  std::memcpy(page.data() + sizeof(sb), directory.data(),
              directory.size() * sizeof(StreamEntry));
  sb.crc = Crc32c(page.data(), page_size_);
  std::memcpy(page.data(), &sb, sizeof(sb));
  PANE_RETURN_NOT_OK(file.Append(page.data(), page_size_));

  // Page-table pages.
  for (int64_t tp = 0; tp < table_pages; ++tp) {
    std::fill(page.begin(), page.end(), 0);
    const int64_t first_entry = tp * entries_per_table_page;
    const int64_t count = std::min<int64_t>(entries_per_table_page,
                                            data_pages - first_entry);
    PageTablePageHeader header;
    header.crc = 0;
    header.entry_count = static_cast<uint32_t>(count);
    std::memcpy(page.data(), &header, sizeof(header));
    std::memcpy(page.data() + sizeof(header),
                table.data() + first_entry,
                static_cast<size_t>(count) * sizeof(PageTableEntry));
    header.crc = Crc32c(page.data(), page_size_);
    std::memcpy(page.data(), &header, sizeof(header));
    PANE_RETURN_NOT_OK(file.Append(page.data(), page_size_));
  }

  // Data pages: complete pages straight from the caller's buffer, the
  // zero-padded tail page through the scratch buffer.
  for (const PendingStream& s : streams_) {
    const int64_t full_bytes = (s.bytes / page_size_) * page_size_;
    if (full_bytes > 0) {
      PANE_RETURN_NOT_OK(file.Append(s.data, full_bytes));
    }
    const int64_t tail = s.bytes - full_bytes;
    if (tail > 0) {
      std::fill(page.begin(), page.end(), 0);
      std::memcpy(page.data(), s.data + full_bytes,
                  static_cast<size_t>(tail));
      PANE_RETURN_NOT_OK(file.Append(page.data(), page_size_));
    }
  }

  if (file.appended() != num_pages * page_size_) {
    return Status::Internal("container writer laid out " +
                            std::to_string(num_pages * page_size_) +
                            " bytes but wrote " +
                            std::to_string(file.appended()));
  }
  return file.Commit();
}

bool Container::PathIsContainer(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char bytes[8];
  if (!in.read(bytes, sizeof(bytes))) return false;
  return HasContainerMagic(bytes);
}

Result<Container> Container::Open(const std::string& path) {
  Container c;
  c.path_ = path;
  PANE_ASSIGN_OR_RETURN(c.map_, MappedFile::OpenReadOnly(path));
  const int64_t file_size = c.map_.size();
  // No magic means some other kind of file (InvalidArgument); the magic
  // followed by too few bytes means a truncated container (IOError).
  if (file_size < static_cast<int64_t>(sizeof(uint64_t)) ||
      !HasContainerMagic(c.map_.data())) {
    return Status::InvalidArgument("not a PANE container: " + path);
  }
  if (file_size < static_cast<int64_t>(sizeof(SuperblockHeader))) {
    return Status::IOError("PANE container truncated to " +
                           std::to_string(file_size) + " bytes: " + path);
  }
  std::memcpy(&c.superblock_, c.map_.data(), sizeof(SuperblockHeader));
  const SuperblockHeader& sb = c.superblock_;
  if (sb.version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported container format version " + std::to_string(sb.version) +
        " in " + path + " (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }
  PANE_RETURN_NOT_OK(ValidatePageSize(sb.page_size, path));
  const int64_t page_size = sb.page_size;
  if (file_size < page_size) {
    return Status::IOError("container " + path + " truncated: " +
                           std::to_string(file_size) +
                           " bytes is less than one page");
  }

  // Superblock checksum first: any flipped bit in page 0 — including in the
  // geometry fields the remaining checks rely on — reports as corruption,
  // not as a misleading structural error.
  {
    std::vector<char> page(static_cast<size_t>(page_size));
    std::memcpy(page.data(), c.map_.data(), page.size());
    SuperblockHeader scrubbed = sb;
    scrubbed.crc = 0;
    std::memcpy(page.data(), &scrubbed, sizeof(scrubbed));
    const uint32_t actual = Crc32c(page.data(), page.size());
    if (actual != sb.crc) {
      return Status::IOError("container superblock checksum mismatch in " +
                             path + ": expected " + HexCrc(sb.crc) + ", got " +
                             HexCrc(actual));
    }
  }

  const int64_t num_pages = static_cast<int64_t>(sb.num_pages);
  if (num_pages < 1 || file_size % page_size != 0 ||
      file_size / page_size != num_pages) {
    return Status::IOError(
        "container " + path + " is " + std::to_string(file_size) +
        " bytes but its superblock declares " + std::to_string(num_pages) +
        " pages of " + std::to_string(page_size) + " bytes (truncated?)");
  }
  const int64_t table_pages = static_cast<int64_t>(sb.page_table_pages);
  if (sb.page_table_first != 1 || table_pages < 0 ||
      1 + table_pages > num_pages) {
    return Status::IOError("container " + path +
                           " has an out-of-range page table");
  }
  c.data_first_ = 1 + table_pages;
  const int64_t data_pages = num_pages - c.data_first_;
  const int64_t entries_per_table_page = TableEntriesPerPage(sb.page_size);
  if ((data_pages + entries_per_table_page - 1) / entries_per_table_page !=
      table_pages) {
    return Status::IOError("container " + path + " declares " +
                           std::to_string(table_pages) +
                           " page-table pages for " +
                           std::to_string(data_pages) + " data pages");
  }
  if (static_cast<int64_t>(sb.stream_count) >
      MaxStreamsForPageSize(sb.page_size)) {
    return Status::IOError("container " + path + " declares " +
                           std::to_string(sb.stream_count) +
                           " streams, more than the superblock can hold");
  }

  // Page table: verify each table page's embedded checksum, then collect the
  // per-data-page entries.
  c.table_.resize(static_cast<size_t>(data_pages));
  std::vector<char> page(static_cast<size_t>(page_size));
  for (int64_t tp = 0; tp < table_pages; ++tp) {
    const char* raw = c.map_.data() + (1 + tp) * page_size;
    std::memcpy(page.data(), raw, page.size());
    PageTablePageHeader header;
    std::memcpy(&header, page.data(), sizeof(header));
    PageTablePageHeader scrubbed = header;
    scrubbed.crc = 0;
    std::memcpy(page.data(), &scrubbed, sizeof(scrubbed));
    const uint32_t actual = Crc32c(page.data(), page.size());
    if (actual != header.crc) {
      return Status::IOError("container page-table page " +
                             std::to_string(1 + tp) +
                             " checksum mismatch in " + path + ": expected " +
                             HexCrc(header.crc) + ", got " + HexCrc(actual));
    }
    const int64_t first_entry = tp * entries_per_table_page;
    const int64_t expected = std::min<int64_t>(entries_per_table_page,
                                               data_pages - first_entry);
    if (static_cast<int64_t>(header.entry_count) != expected) {
      return Status::IOError("container page-table page " +
                             std::to_string(1 + tp) + " in " + path +
                             " holds " + std::to_string(header.entry_count) +
                             " entries, expected " + std::to_string(expected));
    }
    std::memcpy(c.table_.data() + first_entry, raw + sizeof(header),
                static_cast<size_t>(expected) * sizeof(PageTableEntry));
  }

  // Stream directory: names, types, extents, per-page type agreement, and
  // mutual non-overlap.
  c.streams_.resize(sb.stream_count);
  std::memcpy(c.streams_.data(), c.map_.data() + sizeof(SuperblockHeader),
              static_cast<size_t>(sb.stream_count) * sizeof(StreamEntry));
  std::vector<std::pair<int64_t, int64_t>> extents;
  for (uint32_t i = 0; i < sb.stream_count; ++i) {
    const StreamEntry& entry = c.streams_[i];
    const size_t name_len = strnlen(entry.name, sizeof(entry.name));
    if (name_len == 0 || name_len > kMaxStreamNameLength) {
      return Status::IOError("container " + path + " stream " +
                             std::to_string(i) + " has a malformed name");
    }
    const std::string name(entry.name, name_len);
    if (!IsValidDataPageType(entry.type)) {
      return Status::IOError("container " + path + " stream '" + name +
                             "' has invalid page type " +
                             std::to_string(entry.type));
    }
    for (uint32_t j = 0; j < i; ++j) {
      if (std::strncmp(c.streams_[j].name, entry.name,
                       sizeof(entry.name)) == 0) {
        return Status::IOError("container " + path +
                               " has duplicate stream '" + name + "'");
      }
    }
    const int64_t first = static_cast<int64_t>(entry.first_page);
    const int64_t count = static_cast<int64_t>(entry.page_count);
    const int64_t payload = static_cast<int64_t>(entry.payload_bytes);
    if (count == 0) {
      if (payload != 0) {
        return Status::IOError("container " + path + " stream '" + name +
                               "' has payload bytes but no pages");
      }
      continue;
    }
    if (count > data_pages || first < c.data_first_ ||
        first > num_pages - count) {
      return Status::IOError("container " + path + " stream '" + name +
                             "' extent is out of range");
    }
    if (payload > count * page_size || payload <= (count - 1) * page_size) {
      return Status::IOError("container " + path + " stream '" + name +
                             "' payload size does not match its page count");
    }
    for (int64_t p = first; p < first + count; ++p) {
      if (c.table_[static_cast<size_t>(p - c.data_first_)].type !=
          entry.type) {
        return Status::IOError(
            "container " + path + " stream '" + name + "' page " +
            std::to_string(p) + " has mismatched type in the page table");
      }
    }
    extents.emplace_back(first, count);
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].first + extents[i - 1].second) {
      return Status::IOError("container " + path +
                             " has overlapping stream extents");
    }
  }

  c.verified_.assign(c.streams_.size(), 0);
  c.verify_mutex_ = std::make_unique<SharedMutex>();
  return c;
}

const StreamEntry* Container::Find(const std::string& name) const {
  if (name.size() > kMaxStreamNameLength) return nullptr;
  for (const StreamEntry& entry : streams_) {
    if (std::strncmp(entry.name, name.c_str(), sizeof(entry.name)) == 0) {
      return &entry;
    }
  }
  return nullptr;
}

Status Container::VerifyPageRange(int64_t first_page, int64_t page_count,
                                  const std::string& what) const {
  const int64_t page_size = superblock_.page_size;
  for (int64_t p = first_page; p < first_page + page_count; ++p) {
    const PageTableEntry& te = table_[static_cast<size_t>(p - data_first_)];
    const uint32_t actual =
        Crc32c(map_.data() + p * page_size, static_cast<size_t>(page_size));
    if (actual != te.crc) {
      return Status::IOError(
          "container page " + std::to_string(p) + " (" +
          PageTypeToString(static_cast<PageType>(te.type)) + ", " + what +
          ") checksum mismatch in " + path_ + ": expected " + HexCrc(te.crc) +
          ", got " + HexCrc(actual));
    }
  }
  return Status::OK();
}

Status Container::VerifyStream(int64_t index) const {
  {
    // Fast path: after warm-up every Read() lands here, so concurrent
    // readers only share the lock instead of serializing on it.
    ReaderMutexLock lock(verify_mutex_.get());
    if (verified_[static_cast<size_t>(index)]) return Status::OK();
  }
  WriterMutexLock lock(verify_mutex_.get());
  if (verified_[static_cast<size_t>(index)]) return Status::OK();
  const StreamEntry& entry = streams_[static_cast<size_t>(index)];
  PANE_RETURN_NOT_OK(VerifyPageRange(
      static_cast<int64_t>(entry.first_page),
      static_cast<int64_t>(entry.page_count),
      "stream '" + std::string(entry.name,
                               strnlen(entry.name, sizeof(entry.name))) +
          "'"));
  verified_[static_cast<size_t>(index)] = 1;
  return Status::OK();
}

Result<Container::StreamView> Container::Read(const std::string& name) const {
  for (size_t i = 0; i < streams_.size(); ++i) {
    if (std::strncmp(streams_[i].name, name.c_str(),
                     sizeof(streams_[i].name)) != 0) {
      continue;
    }
    PANE_RETURN_NOT_OK(VerifyStream(static_cast<int64_t>(i)));
    return ViewOf(streams_[i]);
  }
  return Status::NotFound("container " + path_ + " has no stream '" + name +
                          "'");
}

Container::StreamView Container::ViewOf(const StreamEntry& entry) const {
  StreamView view;
  view.type = static_cast<PageType>(entry.type);
  view.bytes = static_cast<int64_t>(entry.payload_bytes);
  view.data = entry.page_count == 0
                  ? nullptr
                  : map_.data() + static_cast<int64_t>(entry.first_page) *
                                      superblock_.page_size;
  return view;
}

Status Container::VerifyAll() const {
  WriterMutexLock lock(verify_mutex_.get());
  PANE_RETURN_NOT_OK(VerifyPageRange(
      data_first_, static_cast<int64_t>(table_.size()), "full verify"));
  std::fill(verified_.begin(), verified_.end(), 1);
  return Status::OK();
}

}  // namespace store
}  // namespace pane
