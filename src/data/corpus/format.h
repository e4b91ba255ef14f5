// On-disk column-file format for the out-of-core trace corpus.
//
// A column file is a stream of fixed-width little-endian elements followed
// by a 40-byte footer:
//
//   [ payload: rows * element_width bytes ]
//   [ footer:  magic u64 | version u32 | element_width u32
//            | rows u64  | payload_hash u64 | footer_hash u64 ]
//
// payload_hash is FNV-1a over the payload bytes; footer_hash is FNV-1a
// over the preceding 32 footer bytes, so truncation anywhere in the file
// shifts the trailing 40 bytes and is caught before any field is trusted.
// Writers stream to `<path>.tmp` (hashing incrementally as they go) and
// rename into place on finish — a reader can never observe a column
// without a valid footer, and a killed writer leaves only `.tmp` litter
// that corpus opens ignore.
//
// Every validation failure throws CorpusError carrying the offending file
// and the byte offset of the structure that failed, so callers (and the
// CLI, which maps CorpusError to its own exit code) can report precisely
// what is wrong with which artifact.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace cfs::corpus {

static_assert(std::endian::native == std::endian::little,
              "corpus columns are little-endian on disk and mapped raw");

// "CFSCOL1\0" read as a little-endian u64.
inline constexpr std::uint64_t kColumnMagic = 0x00314c4f43534643ULL;
// Bumped with every change to the corpus layout, so a corpus written by
// an older build is rejected with a version error rather than misread.
inline constexpr std::uint32_t kColumnVersion = 2;
inline constexpr std::size_t kFooterBytes = 40;

// Structured corpus-format failure: which file, at which byte offset,
// and what was wrong with it.
class CorpusError : public std::runtime_error {
 public:
  CorpusError(std::string path, std::uint64_t offset, const std::string& detail);
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
};

// Incremental FNV-1a (same constants as util/strings.h fnv1a64, exposed
// in streaming form so writers can hash terabytes without buffering).
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv1a64_update(std::uint64_t hash, const void* data,
                                    std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

struct ColumnFooter {
  std::uint32_t version = kColumnVersion;
  std::uint32_t element_width = 0;
  std::uint64_t rows = 0;
  std::uint64_t payload_hash = kFnvOffsetBasis;
};

void encode_footer(const ColumnFooter& footer, unsigned char out[kFooterBytes]);
// Validates footer_hash, magic, and version; throws CorpusError annotated
// with `path` and `footer_offset` (the footer's position in the file).
ColumnFooter decode_footer(const unsigned char in[kFooterBytes],
                           const std::string& path,
                           std::uint64_t footer_offset);

// Pure 64-bit layout arithmetic, factored out of the mmap reader so the
// >4 GiB offset edge cases are unit-testable without writing giant files.
struct ColumnLayout {
  std::uint64_t rows = 0;
  std::uint32_t element_width = 0;

  [[nodiscard]] std::uint64_t payload_bytes() const {
    return rows * static_cast<std::uint64_t>(element_width);
  }
  [[nodiscard]] std::uint64_t file_bytes() const {
    return payload_bytes() + kFooterBytes;
  }
  [[nodiscard]] std::uint64_t offset_of(std::uint64_t row) const {
    return row * static_cast<std::uint64_t>(element_width);
  }
};

// Streams elements to `<path>.tmp`, then writes the footer and renames to
// `path` on finish(). Destruction without finish() removes the tmp file.
class ColumnWriter {
 public:
  ColumnWriter(std::string path, std::uint32_t element_width);
  ColumnWriter(const ColumnWriter&) = delete;
  ColumnWriter& operator=(const ColumnWriter&) = delete;
  ~ColumnWriter();

  void append(const void* data, std::size_t bytes);
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&value, sizeof value);
  }

  [[nodiscard]] std::uint64_t rows() const;
  [[nodiscard]] std::uint64_t payload_hash() const { return hash_; }
  void finish();

 private:
  std::string path_;
  std::string tmp_path_;
  std::uint32_t element_width_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t hash_ = kFnvOffsetBasis;
  int fd_ = -1;
  bool finished_ = false;
  // Small user-space buffer so per-hop appends do not become syscalls.
  static constexpr std::size_t kBufferBytes = 1 << 16;
  std::size_t buffered_ = 0;
  unsigned char buffer_[kBufferBytes];

  void flush();
};

// Read-only mmap of a finished column file. Footer structure is always
// validated on open; the payload hash is only recomputed when
// `verify_payload` is set (touching every page is itself a cost — deep
// verification belongs to `cfs corpus verify` and the tests, not to every
// pipeline open).
class MappedColumn {
 public:
  MappedColumn() = default;
  MappedColumn(MappedColumn&& other) noexcept;
  MappedColumn& operator=(MappedColumn&& other) noexcept;
  MappedColumn(const MappedColumn&) = delete;
  MappedColumn& operator=(const MappedColumn&) = delete;
  ~MappedColumn();

  static MappedColumn open(const std::string& path,
                           std::uint32_t expect_width,
                           bool verify_payload = false);

  [[nodiscard]] std::uint64_t rows() const { return layout_.rows; }
  [[nodiscard]] std::uint32_t width() const { return layout_.element_width; }
  [[nodiscard]] const ColumnLayout& layout() const { return layout_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const unsigned char* payload() const { return base_; }

  [[nodiscard]] const unsigned char* raw(std::uint64_t row) const {
    return base_ + layout_.offset_of(row);
  }
  template <typename T>
  [[nodiscard]] T at(std::uint64_t row) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    __builtin_memcpy(&value, raw(row), sizeof value);
    return value;
  }

  // Recompute the payload hash against the footer (throws CorpusError on
  // mismatch, offset 0 = payload start).
  void verify_payload() const;

  // Drop resident pages backing payload rows [row_begin, row_end): the
  // range is converted to byte offsets and aligned inward to page
  // boundaries, so a release never touches bytes outside the request.
  // Reads after a release simply re-fault from the (immutable) file.
  void release_rows(std::uint64_t row_begin, std::uint64_t row_end) const;

 private:
  std::string path_;
  ColumnLayout layout_;
  const unsigned char* base_ = nullptr;  // payload start == map start
  std::uint64_t map_bytes_ = 0;

  void reset() noexcept;
};

}  // namespace cfs::corpus
