// Corpus robustness regressions (docs/SCALE.md): a truncated, bit-flipped,
// wrong-magic or version-skewed corpus must be rejected with a structured
// CorpusError naming the offending file and byte offset — never a crash —
// and the partial spill a killed run leaves behind (columns with no
// manifest, or stray .tmp litter) must be rejected or ignored as a unit.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "data/corpus/corpus.h"
#include "data/corpus/format.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace cfs::corpus {
namespace {

std::string temp_dir(const std::string& stem) {
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/cfs_corpus_rob_" + stem + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// A small committed corpus: 40 one-hop traces.
std::string write_corpus(const std::string& stem) {
  const std::string dir = temp_dir(stem);
  Rng rng(13);
  TraceCorpusWriter writer(dir);
  for (std::uint32_t i = 0; i < 40; ++i) {
    TraceResult trace;
    trace.vp = VantagePointId(i + 1);
    trace.target = Ipv4(0x0a000000u + i);
    trace.reached_target = true;
    Hop hop;
    hop.responded = true;
    hop.address = Ipv4(0xc0a80000u + i);
    hop.rtt_ms = rng.uniform_real(1.0, 50.0);
    trace.hops.push_back(hop);
    writer.append(trace);
  }
  writer.finish();
  return dir;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_size);
}

void overwrite_byte(const std::string& path, std::uint64_t offset,
                    unsigned char value) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0) << path;
  ASSERT_EQ(::pwrite(fd, &value, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

// Writes a column file by hand: payload + a footer the tests can skew
// field-by-field while keeping footer_hash self-consistent (so the error
// under test is the one that fires, not the checksum backstop).
void write_raw_column(const std::string& path,
                      const std::vector<unsigned char>& payload,
                      std::uint64_t magic, std::uint32_t version,
                      std::uint32_t width, std::uint64_t rows) {
  unsigned char footer[kFooterBytes];
  std::uint64_t payload_hash = kFnvOffsetBasis;
  payload_hash = fnv1a64_update(payload_hash, payload.data(), payload.size());
  std::memcpy(footer + 0, &magic, 8);
  std::memcpy(footer + 8, &version, 4);
  std::memcpy(footer + 12, &width, 4);
  std::memcpy(footer + 16, &rows, 8);
  std::memcpy(footer + 24, &payload_hash, 8);
  const std::uint64_t footer_hash = fnv1a64_update(kFnvOffsetBasis, footer, 32);
  std::memcpy(footer + 32, &footer_hash, 8);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  file.write(reinterpret_cast<const char*>(footer), kFooterBytes);
  ASSERT_TRUE(file.flush()) << path;
}

TEST(CorpusRobustnessTest, TruncatedColumnIsRejectedWithFileAndOffset) {
  const std::string dir = write_corpus("truncated");
  const std::string victim = dir + "/hop_rtt.col";
  const std::uint64_t size = file_size(victim);
  ASSERT_EQ(::truncate(victim.c_str(), static_cast<off_t>(size - 7)), 0);

  try {
    (void)TraceCorpusReader::open(dir);
    FAIL() << "truncated column accepted";
  } catch (const CorpusError& error) {
    EXPECT_EQ(error.path(), victim);
    EXPECT_NE(std::string(error.what()).find(victim), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("corpus error"),
              std::string::npos);
  }
}

TEST(CorpusRobustnessTest, FileShorterThanFooterIsRejected) {
  const std::string dir = write_corpus("stub");
  const std::string victim = dir + "/vp.col";
  ASSERT_EQ(::truncate(victim.c_str(), 11), 0);
  try {
    (void)TraceCorpusReader::open(dir);
    FAIL() << "stub column accepted";
  } catch (const CorpusError& error) {
    EXPECT_EQ(error.path(), victim);
  }
}

TEST(CorpusRobustnessTest, PayloadBitFlipIsCaughtByDeepVerify) {
  const std::string dir = write_corpus("bitflip");
  const std::string victim = dir + "/hop_addr.col";
  // Open succeeds (footers are intact) ...
  const auto reader = TraceCorpusReader::open(dir);
  ASSERT_EQ(reader->traces(), 40u);
  // ... but a payload flip fails the deep verify, naming the file.
  overwrite_byte(victim, 2, 0xff);
  try {
    (void)TraceCorpusReader::verify(dir);
    FAIL() << "bit-flipped payload verified clean";
  } catch (const CorpusError& error) {
    EXPECT_EQ(error.path(), victim);
  }
}

TEST(CorpusRobustnessTest, FooterCorruptionIsCaughtOnOpen) {
  const std::string dir = write_corpus("footer");
  const std::string victim = dir + "/flags.col";
  const std::uint64_t footer_at = file_size(victim) - kFooterBytes;
  // Flip a byte of the rows field: footer_hash no longer matches, and the
  // error pinpoints the checksum field itself (footer + 32).
  overwrite_byte(victim, footer_at + 16, 0xee);
  try {
    (void)TraceCorpusReader::open(dir);
    FAIL() << "corrupt footer accepted";
  } catch (const CorpusError& error) {
    EXPECT_EQ(error.path(), victim);
    EXPECT_EQ(error.offset(), footer_at + 32);
  }
}

TEST(CorpusRobustnessTest, WrongMagicIsRejected) {
  const std::string dir = temp_dir("magic");
  // A self-consistent footer (valid footer_hash) with the wrong magic:
  // the magic check itself must fire, not the checksum backstop.
  write_raw_column(dir + "/values.col", std::vector<unsigned char>(16, 0),
                   /*magic=*/0x31474e4f52574e57ULL, kColumnVersion, 8, 2);
  try {
    (void)MappedColumn::open(dir + "/values.col", 8);
    FAIL() << "wrong magic accepted";
  } catch (const CorpusError& error) {
    EXPECT_EQ(error.path(), dir + "/values.col");
    EXPECT_EQ(error.offset(), 16u);
    EXPECT_NE(std::string(error.what()).find("magic"), std::string::npos);
  }
}

TEST(CorpusRobustnessTest, VersionSkewIsRejected) {
  const std::string dir = temp_dir("version");
  write_raw_column(dir + "/values.col", std::vector<unsigned char>(16, 0),
                   kColumnMagic, kColumnVersion + 1, 8, 2);
  try {
    (void)MappedColumn::open(dir + "/values.col", 8);
    FAIL() << "future version accepted";
  } catch (const CorpusError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST(CorpusRobustnessTest, WidthMismatchIsRejected) {
  const std::string dir = temp_dir("width");
  write_raw_column(dir + "/values.col", std::vector<unsigned char>(16, 0),
                   kColumnMagic, kColumnVersion, 4, 4);
  try {
    (void)MappedColumn::open(dir + "/values.col", 8);  // expects u64
    FAIL() << "width mismatch accepted";
  } catch (const CorpusError& error) {
    EXPECT_EQ(error.path(), dir + "/values.col");
  }
}

TEST(CorpusRobustnessTest, MissingManifestRejectsCorpusAsAUnit) {
  const std::string dir = write_corpus("nomanifest");
  ASSERT_EQ(::unlink(manifest_path(dir).c_str()), 0);
  // Every column is individually pristine, but the commit point is gone:
  // the partial spill of a killed run must not be half-loaded.
  EXPECT_THROW((void)TraceCorpusReader::open(dir), CorpusError);
  EXPECT_THROW((void)TraceCorpusReader::verify(dir), CorpusError);
}

TEST(CorpusRobustnessTest, KilledRunTmpLitterIsIgnored) {
  const std::string dir = write_corpus("tmplitter");
  // A killed writer leaves `.tmp` columns behind; a later reader of the
  // committed corpus must never open them.
  std::ofstream(dir + "/vp.col.tmp") << "garbage, not a column";
  std::ofstream(dir + "/extra.col.tmp") << "also garbage";
  const auto reader = TraceCorpusReader::open(dir, /*verify_payloads=*/true);
  EXPECT_EQ(reader->traces(), 40u);
  const CorpusSummary summary = TraceCorpusReader::verify(dir);
  EXPECT_EQ(summary.traces, 40u);
}

TEST(CorpusRobustnessTest, MissingDirectoryIsAStructuredError) {
  try {
    (void)TraceCorpusReader::open("/nonexistent-cfs-corpus");
    FAIL() << "missing corpus accepted";
  } catch (const CorpusError& error) {
    EXPECT_NE(std::string(error.what()).find("/nonexistent-cfs-corpus"),
              std::string::npos);
  }
}

TEST(CorpusRobustnessTest, RowCountCrossColumnMismatchIsRejected) {
  const std::string dir = write_corpus("rowskew");
  // Rewrite target.col with one row fewer than vp.col: the cross-column
  // row-count check must reject the corpus even though the file is valid
  // on its own.
  const auto reader = TraceCorpusReader::open(dir);
  const std::uint64_t rows = reader->traces();
  std::vector<unsigned char> payload(static_cast<std::size_t>(rows - 1) * 4, 1);
  write_raw_column(dir + "/target.col", payload, kColumnMagic,
                   kColumnVersion, 4, rows - 1);
  EXPECT_THROW((void)TraceCorpusReader::open(dir), CorpusError);
}


// Writes a manifest from raw JSON value texts, so a test can plant any
// type or number spelling next to the columns of a committed corpus.
void write_manifest(const std::string& dir,
                    const std::map<std::string, std::string>& fields) {
  std::string text = "{";
  for (const auto& [key, value] : fields)
    text += (text.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
  std::ofstream(manifest_path(dir), std::ios::trunc) << text << "}\n";
}

TEST(CorpusRobustnessTest, MalformedManifestFieldsAreCorpusErrors) {
  // Each manifest field must be present, of the right type and an exact
  // non-negative integer, and the counts must match the columns; anything
  // else is a structured CorpusError, not a generic runtime error, a
  // silent truncation or a wrapped cast.
  const struct {
    const char* key;
    const char* value;  // empty = field removed
  } cases[] = {
      {"version", ""},      {"traces", ""},         {"hops", ""},
      {"format", ""},       {"format", "7"},        {"traces", "\"40\""},
      {"version", "1.5"},   {"version", "1e300"},   {"version", "-2"},
      {"hops", "40.0"},     {"version", "1"},       {"traces", "null"},
      {"traces", "41"},     {"hops", "39"},
  };
  const std::map<std::string, std::string> valid = {
      {"format", "\"cfs-trace-corpus\""},
      {"version", std::to_string(kColumnVersion)},
      {"traces", "40"},
      {"hops", "40"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.key) + " = '" + c.value + "'");
    const std::string dir = write_corpus("manifest");
    std::map<std::string, std::string> fields = valid;
    if (*c.value == '\0')
      fields.erase(c.key);
    else
      fields[c.key] = c.value;
    write_manifest(dir, fields);
    try {
      (void)TraceCorpusReader::verify(dir);
      FAIL() << "malformed manifest accepted";
    } catch (const CorpusError& error) {
      EXPECT_EQ(error.path(), manifest_path(dir));
      EXPECT_NE(std::string(error.what()).find(c.key), std::string::npos)
          << error.what();
    }
  }
  // The same writer with valid fields yields a corpus that verifies, so
  // each case above fails on its field, not on the rewriting.
  const std::string dir = write_corpus("manifest");
  write_manifest(dir, valid);
  EXPECT_EQ(TraceCorpusReader::verify(dir).traces, 40u);
}

}  // namespace
}  // namespace cfs::corpus
