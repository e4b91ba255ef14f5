#include "data/corpus/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/json.h"

namespace cfs::corpus {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "manifest.json";
constexpr const char* kManifestFormat = "cfs-trace-corpus";

struct ColumnSpec {
  const char* name;
  std::uint32_t width;
};
constexpr std::array<ColumnSpec, kColumnCount> kColumnSpecs = {{
    {"vp.col", 4},
    {"target.col", 4},
    {"flags.col", 1},
    {"timeouts.col", 4},
    {"hop_off.col", 8},
    {"hop_cnt.col", 4},
    {"hop_addr.col", 4},
    {"hop_rtt.col", 8},
    {"hop_flags.col", 1},
}};

std::string join(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

constexpr std::uint8_t kFlagReached = 1u << 0;
constexpr std::uint8_t kHopResponded = 1u << 0;
constexpr std::uint8_t kHopTimedOut = 1u << 1;

CorpusSummary read_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  std::ifstream in(path);
  if (!in) {
    throw CorpusError(path, 0,
                      "missing manifest (not a corpus, or the writing run "
                      "died before commit)");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  try {
    root = parse_json(buffer.str());
  } catch (const std::exception& e) {
    throw CorpusError(path, 0, std::string("manifest is not valid JSON: ") +
                                   e.what());
  }
  const JsonValue* format = root.is_object() ? root.find("format") : nullptr;
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kManifestFormat) {
    throw CorpusError(path, 0, "manifest format is not cfs-trace-corpus");
  }
  // Every count must be present and an exact non-negative integer: a
  // string, a fraction or an out-of-range double is a damaged manifest,
  // never a value to coerce.
  const auto count = [&](const char* key) {
    const JsonValue* value = root.find(key);
    if (value == nullptr || !value->is_integer() || value->as_number() < 0) {
      throw CorpusError(path, 0,
                        std::string("manifest \"") + key +
                            "\" is missing or not a non-negative integer");
    }
    return value->as_uint();
  };
  const std::uint64_t version = count("version");
  if (version != kColumnVersion) {
    throw CorpusError(path, 0,
                      "corpus version " + std::to_string(version) +
                          " (this build reads version " +
                          std::to_string(kColumnVersion) + ")");
  }
  return {count("traces"), count("hops")};
}

}  // namespace

std::string manifest_path(const std::string& dir) {
  return join(dir, kManifestName);
}

TraceCorpusWriter::TraceCorpusWriter(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw CorpusError(dir_, 0, "cannot create directory: " + ec.message());
  // A stale manifest from a previous corpus must not survive into a new
  // write: remove it first so a crashed rewrite cannot present old
  // metadata over new columns.
  std::remove(manifest_path(dir_).c_str());
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    columns_[c] = std::make_unique<ColumnWriter>(
        join(dir_, kColumnSpecs[c].name), kColumnSpecs[c].width);
  }
}

void TraceCorpusWriter::append(const TraceResult& trace) {
  columns_[kVp]->put<std::uint32_t>(trace.vp.value);
  columns_[kTarget]->put<std::uint32_t>(trace.target.value());
  columns_[kFlags]->put<std::uint8_t>(trace.reached_target ? kFlagReached : 0);
  columns_[kTimeouts]->put<std::uint32_t>(
      static_cast<std::uint32_t>(trace.hops_timed_out));
  columns_[kHopOff]->put<std::uint64_t>(hops_);
  columns_[kHopCnt]->put<std::uint32_t>(
      static_cast<std::uint32_t>(trace.hops.size()));
  for (const Hop& hop : trace.hops) {
    columns_[kHopAddr]->put<std::uint32_t>(hop.address.value());
    columns_[kHopRtt]->put<double>(hop.rtt_ms);
    std::uint8_t hf = 0;
    if (hop.responded) hf |= kHopResponded;
    if (hop.timed_out) hf |= kHopTimedOut;
    columns_[kHopFlags]->put<std::uint8_t>(hf);
  }
  hops_ += trace.hops.size();
  ++traces_;
}

CorpusSummary TraceCorpusWriter::finish() {
  if (finished_)
    throw CorpusError(dir_, 0, "corpus writer finished twice");
  for (const auto& column : columns_) column->finish();

  // The manifest is the commit point: written only after every column is
  // in place, itself via tmp + rename.
  JsonValue::Object root;
  root["format"] = JsonValue(kManifestFormat);
  root["version"] = JsonValue(kColumnVersion);
  root["traces"] = JsonValue(traces_);
  root["hops"] = JsonValue(hops_);

  const std::string path = manifest_path(dir_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw CorpusError(tmp, 0, "cannot write manifest");
    out << JsonValue(std::move(root)).pretty() << "\n";
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw CorpusError(tmp, 0, "short write to manifest");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CorpusError(path, 0, "cannot rename manifest into place");
  }
  finished_ = true;
  return {traces_, hops_};
}

std::shared_ptr<const TraceCorpusReader> TraceCorpusReader::open(
    const std::string& dir, bool verify_payloads) {
  return std::shared_ptr<const TraceCorpusReader>(
      new TraceCorpusReader(open_impl(dir, verify_payloads)));
}

TraceCorpusReader TraceCorpusReader::open_impl(const std::string& dir,
                                               bool verify_payloads) {
  TraceCorpusReader reader;
  reader.dir_ = dir;
  reader.summary_ = read_manifest(dir);
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    reader.columns_[c] = MappedColumn::open(join(dir, kColumnSpecs[c].name),
                                            kColumnSpecs[c].width,
                                            verify_payloads);
  }
  // Every trace column has one row per trace, every hop column one row
  // per hop, and the manifest promises exactly those counts.
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    const MappedColumn& column = reader.columns_[c];
    const MappedColumn& first =
        reader.columns_[c < kTraceColumns ? kVp : kHopAddr];
    if (column.rows() != first.rows()) {
      throw CorpusError(column.path(), 0,
                        "row count " + std::to_string(column.rows()) +
                            " disagrees with " + first.path() + " (" +
                            std::to_string(first.rows()) + ")");
    }
  }
  const std::uint64_t traces = reader.columns_[kVp].rows();
  const std::uint64_t hops = reader.columns_[kHopAddr].rows();
  if (traces != reader.summary_.traces || hops != reader.summary_.hops) {
    throw CorpusError(
        manifest_path(dir), 0,
        "manifest totals (" + std::to_string(reader.summary_.traces) +
            " traces, " + std::to_string(reader.summary_.hops) +
            " hops) disagree with the columns (" + std::to_string(traces) +
            " traces, " + std::to_string(hops) + " hops)");
  }
  return reader;
}

void TraceCorpusReader::materialize(std::uint64_t row, TraceResult& out) const {
  const MappedColumn& hop_off = columns_[kHopOff];
  const std::uint64_t off = hop_off.at<std::uint64_t>(row);
  const std::uint32_t cnt = columns_[kHopCnt].at<std::uint32_t>(row);
  const std::uint64_t hops = total_hops();
  if (off > hops || cnt > hops - off) {
    throw CorpusError(hop_off.path(), hop_off.layout().offset_of(row),
                      "hop range [" + std::to_string(off) + ", " +
                          std::to_string(off + cnt) + ") exceeds " +
                          std::to_string(hops) + " hop rows");
  }
  out.vp = VantagePointId{columns_[kVp].at<std::uint32_t>(row)};
  out.target = Ipv4(columns_[kTarget].at<std::uint32_t>(row));
  out.reached_target =
      (columns_[kFlags].at<std::uint8_t>(row) & kFlagReached) != 0;
  out.hops_timed_out = columns_[kTimeouts].at<std::uint32_t>(row);
  out.hops.clear();
  out.hops.reserve(cnt);
  for (std::uint64_t h = off; h < off + cnt; ++h) {
    Hop hop;
    hop.address = Ipv4(columns_[kHopAddr].at<std::uint32_t>(h));
    hop.rtt_ms = columns_[kHopRtt].at<double>(h);
    const std::uint8_t hf = columns_[kHopFlags].at<std::uint8_t>(h);
    hop.responded = (hf & kHopResponded) != 0;
    hop.timed_out = (hf & kHopTimedOut) != 0;
    out.hops.push_back(hop);
  }
}

void TraceCorpusReader::release_range(std::uint64_t begin,
                                      std::uint64_t end) const {
  end = std::min(end, traces());
  if (begin >= end) return;
  const std::uint64_t hop_begin = columns_[kHopOff].at<std::uint64_t>(begin);
  const std::uint64_t hop_end =
      end == traces() ? total_hops() : columns_[kHopOff].at<std::uint64_t>(end);
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    if (c < kTraceColumns)
      columns_[c].release_rows(begin, end);
    else
      columns_[c].release_rows(hop_begin, hop_end);
  }
}

CorpusSummary TraceCorpusReader::verify(const std::string& dir) {
  // Opening with payload verification re-hashes every column.
  const TraceCorpusReader reader = open_impl(dir, /*verify_payloads=*/true);
  // Hop ranges must tile the hop columns exactly.
  const MappedColumn& hop_off = reader.columns_[kHopOff];
  const MappedColumn& hop_cnt = reader.columns_[kHopCnt];
  std::uint64_t expect_off = 0;
  for (std::uint64_t row = 0; row < reader.traces(); ++row) {
    const std::uint64_t off = hop_off.at<std::uint64_t>(row);
    if (off != expect_off) {
      throw CorpusError(hop_off.path(), hop_off.layout().offset_of(row),
                        "hop ranges are not contiguous at row " +
                            std::to_string(row));
    }
    expect_off = off + hop_cnt.at<std::uint32_t>(row);
  }
  if (expect_off != reader.total_hops()) {
    throw CorpusError(hop_cnt.path(), 0,
                      "hop ranges cover " + std::to_string(expect_off) +
                          " of " + std::to_string(reader.total_hops()) +
                          " hop rows");
  }
  return reader.summary_;
}

}  // namespace cfs::corpus
