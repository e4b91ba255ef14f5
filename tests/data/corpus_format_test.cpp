// Property tests for the on-disk column corpus (docs/SCALE.md): column
// write -> mmap-read round trips, the empty, single-trace and many-trace
// corpora, page-release re-reads, and the >4 GiB offset arithmetic that
// must never truncate to 32 bits.
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "data/corpus/corpus.h"
#include "data/corpus/format.h"
#include "data/corpus/tail_spill.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace cfs::corpus {
namespace {

std::string temp_dir(const std::string& stem) {
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/cfs_corpus_" + stem + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// A deterministic trace with `hops` hops; every field depends on `salt`
// so a field-for-field comparison catches any column mix-up.
TraceResult make_trace(Rng& rng, std::uint32_t salt) {
  TraceResult trace;
  trace.vp = VantagePointId(salt * 7 + 1);
  trace.target = Ipv4(0x0a000000u + salt);
  trace.reached_target = rng.chance(0.7);
  const auto hops = static_cast<std::size_t>(rng.uniform(6));
  for (std::size_t h = 0; h < hops; ++h) {
    Hop hop;
    hop.responded = rng.chance(0.8);
    hop.timed_out = !hop.responded && rng.chance(0.5);
    hop.address = hop.responded ? Ipv4(0xc0a80000u + salt * 31 + (std::uint32_t)h)
                                : Ipv4();
    hop.rtt_ms = hop.responded ? rng.uniform_real(0.1, 250.0) : 0.0;
    trace.hops.push_back(hop);
    trace.hops_timed_out += hop.timed_out ? 1u : 0u;
  }
  return trace;
}

void expect_traces_equal(const TraceResult& want, const TraceResult& got) {
  EXPECT_EQ(want.vp.value, got.vp.value);
  EXPECT_EQ(want.target, got.target);
  EXPECT_EQ(want.reached_target, got.reached_target);
  EXPECT_EQ(want.hops_timed_out, got.hops_timed_out);
  ASSERT_EQ(want.hops.size(), got.hops.size());
  for (std::size_t h = 0; h < want.hops.size(); ++h) {
    EXPECT_EQ(want.hops[h].address, got.hops[h].address) << "hop " << h;
    EXPECT_EQ(want.hops[h].rtt_ms, got.hops[h].rtt_ms) << "hop " << h;
    EXPECT_EQ(want.hops[h].responded, got.hops[h].responded) << "hop " << h;
    EXPECT_EQ(want.hops[h].timed_out, got.hops[h].timed_out) << "hop " << h;
  }
}

TEST(CorpusFormatTest, ColumnWriteReadRoundTrip) {
  const std::string dir = temp_dir("column");
  const std::string path = dir + "/values.col";
  Rng rng(41);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.next());

  {
    ColumnWriter writer(path, sizeof(std::uint64_t));
    for (const std::uint64_t v : values) writer.put(v);
    EXPECT_EQ(writer.rows(), values.size());
    // Nothing visible at the final path until finish(): the tmp file is
    // the only artifact of an in-flight writer.
    EXPECT_FALSE(file_exists(path));
    EXPECT_TRUE(file_exists(path + ".tmp"));
    writer.finish();
  }
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));

  const MappedColumn column =
      MappedColumn::open(path, sizeof(std::uint64_t), /*verify_payload=*/true);
  ASSERT_EQ(column.rows(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(column.at<std::uint64_t>(i), values[i]) << "row " << i;
}

TEST(CorpusFormatTest, AbandonedWriterLeavesNoLitter) {
  const std::string dir = temp_dir("abandon");
  const std::string path = dir + "/values.col";
  {
    ColumnWriter writer(path, 4);
    writer.put<std::uint32_t>(7);
    // No finish(): destruction must remove the tmp file.
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(CorpusFormatTest, FooterEncodeDecodeRoundTrip) {
  ColumnFooter footer;
  footer.element_width = 20;
  footer.rows = 123456789;
  footer.payload_hash = 0xdeadbeefcafef00dULL;
  unsigned char bytes[kFooterBytes];
  encode_footer(footer, bytes);
  const ColumnFooter decoded = decode_footer(bytes, "mem", 0);
  EXPECT_EQ(decoded.version, footer.version);
  EXPECT_EQ(decoded.element_width, footer.element_width);
  EXPECT_EQ(decoded.rows, footer.rows);
  EXPECT_EQ(decoded.payload_hash, footer.payload_hash);
}

TEST(CorpusFormatTest, EmptyCorpusRoundTrips) {
  const std::string dir = temp_dir("empty");
  TraceCorpusWriter writer(dir);
  const CorpusSummary written = writer.finish();
  EXPECT_EQ(written.traces, 0u);

  const auto reader = TraceCorpusReader::open(dir);
  EXPECT_EQ(reader->traces(), 0u);
  EXPECT_EQ(reader->total_hops(), 0u);
  const CorpusSummary verified = TraceCorpusReader::verify(dir);
  EXPECT_EQ(verified.traces, 0u);
}

TEST(CorpusFormatTest, SingleTraceRoundTripsFieldForField) {
  const std::string dir = temp_dir("single");
  Rng rng(17);
  const TraceResult want = make_trace(rng, 99);

  TraceCorpusWriter writer(dir);
  writer.append(want);
  const CorpusSummary summary = writer.finish();
  EXPECT_EQ(summary.traces, 1u);
  EXPECT_EQ(summary.hops, want.hops.size());

  const auto reader = TraceCorpusReader::open(dir, /*verify_payloads=*/true);
  ASSERT_EQ(reader->traces(), 1u);
  TraceResult got;
  reader->materialize(0, got);
  expect_traces_equal(want, got);
}

TEST(CorpusFormatTest, RowsRoundTripInAppendOrder) {
  const std::string dir = temp_dir("rows");
  constexpr std::uint32_t kTraces = 257;
  Rng rng(4242);
  std::vector<TraceResult> want;
  TraceCorpusWriter writer(dir);
  for (std::uint32_t i = 0; i < kTraces; ++i) {
    want.push_back(make_trace(rng, i));
    writer.append(want.back());
  }
  EXPECT_EQ(writer.finish().traces, kTraces);

  const auto reader = TraceCorpusReader::open(dir, /*verify_payloads=*/true);
  ASSERT_EQ(reader->traces(), kTraces);
  // Row r is the r-th appended trace, read forwards or backwards.
  TraceResult got;
  for (std::uint32_t row = 0; row < kTraces; ++row) {
    reader->materialize(row, got);
    expect_traces_equal(want[row], got);
  }
  for (std::uint32_t row = kTraces; row-- > 0;) {
    reader->materialize(row, got);
    expect_traces_equal(want[row], got);
  }
  TraceCorpusReader::verify(dir);
}

TEST(CorpusFormatTest, ReleasedPagesRereadIdentically) {
  const std::string dir = temp_dir("release");
  Rng rng(5);
  std::vector<TraceResult> want;
  TraceCorpusWriter writer(dir);
  for (std::uint32_t i = 0; i < 64; ++i) {
    want.push_back(make_trace(rng, i));
    writer.append(want.back());
  }
  writer.finish();

  const auto reader = TraceCorpusReader::open(dir);
  TraceResult got;
  for (std::uint32_t row = 0; row < 64; ++row) reader->materialize(row, got);
  reader->release_range(0, 64);  // MADV_DONTNEED is advisory, never lossy
  for (std::uint32_t row = 0; row < 64; ++row) {
    reader->materialize(row, got);
    expect_traces_equal(want[row], got);
  }
}

// The 64-bit layout arithmetic behind >4 GiB columns, unit-tested without
// writing giant files: no offset, size or row computation may truncate.
TEST(CorpusLayoutTest, OffsetsAbove4GiBStay64Bit) {
  // 600M u64 rows = 4.8 GB payload, past the 32-bit boundary.
  const ColumnLayout wide{600'000'000ULL, 8};
  EXPECT_EQ(wide.payload_bytes(), 4'800'000'000ULL);
  EXPECT_EQ(wide.file_bytes(), 4'800'000'000ULL + kFooterBytes);
  EXPECT_EQ(wide.offset_of(599'999'999ULL), 4'799'999'992ULL);
  EXPECT_GT(wide.offset_of(536'870'912ULL), 0xffffffffULL);

  // A u32 column (vp, target, hop_addr) crosses 4 GiB at ~1.07G rows.
  const ColumnLayout narrow{1'500'000'000ULL, 4};
  EXPECT_EQ(narrow.payload_bytes(), 6'000'000'000ULL);
  EXPECT_EQ(narrow.offset_of(1'499'999'999ULL), 5'999'999'996ULL);

  // A single-byte column the size of the row count itself.
  const ColumnLayout flags{6'000'000'000ULL, 1};
  EXPECT_EQ(flags.payload_bytes(), 6'000'000'000ULL);
  EXPECT_EQ(flags.offset_of(4'294'967'296ULL), 4'294'967'296ULL);
}

TEST(CorpusLayoutTest, FooterRoundTripsHugeRowCounts) {
  ColumnFooter footer;
  footer.element_width = 8;
  footer.rows = 600'000'000ULL;  // payload crosses 4 GiB
  footer.payload_hash = 0x0123456789abcdefULL;
  unsigned char bytes[kFooterBytes];
  encode_footer(footer, bytes);
  const ColumnFooter decoded = decode_footer(bytes, "mem", 4'800'000'000ULL);
  EXPECT_EQ(decoded.rows, footer.rows);
  const ColumnLayout layout{decoded.rows, decoded.element_width};
  EXPECT_EQ(layout.payload_bytes(), 4'800'000'000ULL);
}

// ---- follow-up tail spill (docs/SCALE.md, "Memory behaviour") ----

TEST(TailSpillTest, RoundTripsTracesFieldForField) {
  const std::string dir = temp_dir("tailspill");
  auto spill = TailSpill::create(dir);
  Rng rng(4099);
  std::vector<TraceResult> want;
  for (std::uint32_t i = 0; i < 500; ++i) want.push_back(make_trace(rng, i));
  for (const TraceResult& trace : want) spill->append(trace);
  ASSERT_EQ(spill->rows(), want.size());
  EXPECT_GT(spill->bytes(), 0u);

  // Out-of-order access, reusing one scratch row like the CFS fold does.
  TraceResult got;
  for (std::size_t i = want.size(); i-- > 0;) {
    spill->materialize(i, got);
    expect_traces_equal(want[i], got);
  }
}

TEST(TailSpillTest, RttBitsSurviveExactly) {
  // Byte-identical reports need bit-exact doubles, not just approximate
  // ones: denormals, negative zero and ulp-separated values must all
  // round-trip unchanged through the scratch file.
  const std::string dir = temp_dir("tailspill");
  auto spill = TailSpill::create(dir);
  const double rtts[] = {0.0, -0.0, 5e-324, 0.1,
                         std::nextafter(0.1, 1.0), 1e308};
  TraceResult trace;
  trace.vp = VantagePointId(3);
  trace.target = Ipv4(0x01020304u);
  for (const double rtt : rtts) {
    Hop hop;
    hop.responded = true;
    hop.address = Ipv4(0x0a0a0a0au);
    hop.rtt_ms = rtt;
    trace.hops.push_back(hop);
  }
  spill->append(trace);
  TraceResult got;
  spill->materialize(0, got);
  ASSERT_EQ(got.hops.size(), std::size(rtts));
  for (std::size_t h = 0; h < std::size(rtts); ++h) {
    EXPECT_EQ(std::memcmp(&got.hops[h].rtt_ms, &rtts[h], sizeof(double)), 0)
        << "hop " << h;
  }
}

TEST(TailSpillTest, ZeroHopTraceRoundTrips) {
  const std::string dir = temp_dir("tailspill");
  auto spill = TailSpill::create(dir);
  TraceResult empty;
  empty.vp = VantagePointId(9);
  empty.target = Ipv4(0xdeadbeefu);
  empty.reached_target = false;
  spill->append(empty);
  TraceResult got;
  got.hops.push_back(Hop{});  // stale scratch must be fully overwritten
  spill->materialize(0, got);
  expect_traces_equal(empty, got);
}

TEST(TailSpillTest, ScratchFileNeverAppearsInTheDirectory) {
  // The scratch file is unlinked at birth: `cfs corpus verify` and any
  // crash-recovery sweep must see a clean corpus directory.
  const std::string dir = temp_dir("tailspill");
  auto spill = TailSpill::create(dir);
  Rng rng(7);
  for (std::uint32_t i = 0; i < 16; ++i) spill->append(make_trace(rng, i));
  EXPECT_FALSE(file_exists(dir + "/.tail-spill"));
}

}  // namespace
}  // namespace cfs::corpus
