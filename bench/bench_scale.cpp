// Out-of-core scale check: wall time and peak RSS vs campaign volume.
//
// Not a paper artefact — the perf trajectory of the spill engine
// (docs/SCALE.md). Runs the full pipeline twice per configuration over
// the selected topology (--scale tiny|small|paper, default paper) with
// the campaign volume multiplied --mult times (the default target list
// probed --mult times over, so trace volume scales without touching the
// topology): once with the in-memory engine and once spilled to an
// on-disk column corpus. Each arm runs in a forked child so wait4's
// ru_maxrss reports that arm's true peak RSS, unpolluted by the other
// arm's allocations. Emits every sample as BENCH_scale.json (override
// with --out=FILE).
//
// Acceptance bars:
//   * the spill arm resolves exactly the interfaces the in-memory arm
//     does (the byte-identity contract, spot-checked at scale);
//   * spill peak RSS <= --rss-bar (default 0.5) of the in-memory arm's —
//     the whole point of the out-of-core engine;
//   * --baseline=FILE[,FILE...] compares wall_ms per
//     (engine, mult, threads) sample against committed runs via
//     the shared bench guard and fails on >10% regression.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "analysis/bench_guard.h"
#include "common.h"
#include "io/json.h"
#include "util/flags.h"

namespace {

using namespace cfs;

struct Sample {
  std::string engine;  // "memory" | "spill"
  int mult = 1;
  int threads = 1;
  double wall_ms = 0.0;
  double campaign_ms = 0.0;
  double cfs_ms = 0.0;
  std::size_t traces = 0;
  std::size_t resolved = 0;
  double peak_rss_bytes = 0.0;
  double corpus_bytes = 0.0;  // on-disk footprint (spill arm only)
};

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// The measured pipeline run, executed inside the forked child. Writes a
// single JSON line with the child-side numbers to `fd` and _exits, so
// the parent's wait4 rusage is exactly this run's footprint.
[[noreturn]] void run_child(const PipelineConfig& base, int mult, int threads,
                            bool spill, const std::string& corpus_dir,
                            int fd) {
  PipelineConfig config = base;
  config.threads = threads;
  if (spill) {
    config.spill.enabled = true;
    config.spill.dir = corpus_dir;
  }
  Stopwatch wall;
  Pipeline pipeline(config);
  // Campaign volume x mult over a fixed topology: the default target
  // list probed mult times over. The campaign has no target dedup, so
  // trace count scales linearly while the world (and its baseline RSS)
  // stays put.
  const std::vector<Asn> base_targets = pipeline.default_targets(2, 2);
  std::vector<Asn> targets;
  targets.reserve(base_targets.size() * static_cast<std::size_t>(mult));
  for (int m = 0; m < mult; ++m)
    targets.insert(targets.end(), base_targets.begin(), base_targets.end());

  Stopwatch campaign_timer;
  corpus::TraceStore traces = pipeline.initial_campaign_store(targets, 0.6);
  const double campaign_ms = campaign_timer.elapsed_ms();
  const std::size_t trace_count = traces.size();
  const CfsReport report = pipeline.run_cfs(std::move(traces));

  JsonValue::Object row;
  row.emplace("wall_ms", wall.elapsed_ms());
  row.emplace("campaign_ms", campaign_ms);
  row.emplace("cfs_ms", report.metrics.total_ms);
  row.emplace("traces", static_cast<std::uint64_t>(trace_count));
  row.emplace("resolved",
              static_cast<std::uint64_t>(report.resolved_interfaces()));
  const std::string line = JsonValue(std::move(row)).dump();
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n <= 0) ::_exit(3);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  ::_exit(0);
}

// Forks one pipeline run and harvests wall/phase times (from the child,
// over a pipe) plus peak RSS (from wait4's rusage).
Sample run_arm(const PipelineConfig& base, int mult, int threads, bool spill,
               const std::string& corpus_dir) {
  Sample s;
  s.engine = spill ? "spill" : "memory";
  s.mult = mult;
  s.threads = threads;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(pipe_fds[0]);
    run_child(base, mult, threads, spill, corpus_dir, pipe_fds[1]);
  }
  ::close(pipe_fds[1]);
  std::string line;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(pipe_fds[0], buffer, sizeof buffer)) > 0)
    line.append(buffer, static_cast<std::size_t>(n));
  ::close(pipe_fds[0]);

  int status = 0;
  struct rusage usage {};
  if (::wait4(pid, &status, 0, &usage) != pid)
    throw std::runtime_error("wait4() failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error(s.engine + " arm exited abnormally (status " +
                             std::to_string(status) + ")");
  // Linux reports ru_maxrss in KiB.
  s.peak_rss_bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;

  const JsonValue row = parse_json(line);
  s.wall_ms = row.at("wall_ms").as_number();
  s.campaign_ms = row.at("campaign_ms").as_number();
  s.cfs_ms = row.at("cfs_ms").as_number();
  s.traces = static_cast<std::size_t>(row.at("traces").as_uint());
  s.resolved = static_cast<std::size_t>(row.at("resolved").as_uint());
  if (spill)
    s.corpus_bytes = static_cast<double>(directory_bytes(corpus_dir));
  return s;
}

JsonValue to_json(const std::vector<Sample>& samples, double rss_ratio,
                  double rss_bar) {
  JsonValue::Array rows;
  for (const Sample& s : samples) {
    JsonValue::Object row;
    row.emplace("engine", s.engine);
    row.emplace("mult", static_cast<std::uint64_t>(s.mult));
    row.emplace("threads", static_cast<std::uint64_t>(s.threads));
    row.emplace("wall_ms", s.wall_ms);
    row.emplace("campaign_ms", s.campaign_ms);
    row.emplace("cfs_ms", s.cfs_ms);
    row.emplace("traces", static_cast<std::uint64_t>(s.traces));
    row.emplace("resolved_interfaces", static_cast<std::uint64_t>(s.resolved));
    row.emplace("peak_rss_bytes", s.peak_rss_bytes);
    if (s.engine == "spill") row.emplace("corpus_bytes", s.corpus_bytes);
    rows.emplace_back(std::move(row));
  }
  JsonValue::Object root;
  root.emplace("rss_ratio", rss_ratio);
  root.emplace("rss_bar", rss_bar);
  root.emplace("samples", std::move(rows));
  return JsonValue(std::move(root));
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale = "paper";
  int mult = 10;
  int threads = 4;
  double rss_bar = 0.5;
  std::string baseline_list;
  std::string out_path = "BENCH_scale.json";
  std::string corpus_dir;
  try {
    const Flags flags(argc, argv);
    scale = flags.get("scale", "paper");
    mult = static_cast<int>(flags.get_int("mult", 10));
    threads = static_cast<int>(flags.get_int("threads", 4));
    rss_bar = flags.get_double("rss-bar", 0.5);
    baseline_list = flags.get("baseline", "");
    out_path = flags.get("out", out_path);
    corpus_dir = flags.get("corpus-dir", "");
    const std::string unknown = flags.unknown_flags_message();
    if (!unknown.empty()) throw std::invalid_argument(unknown);
    if (scale != "tiny" && scale != "small" && scale != "paper")
      throw std::invalid_argument("unknown --scale '" + scale +
                                  "' (tiny|small|paper)");
    if (mult < 1 || threads < 1)
      throw std::invalid_argument("--mult/--threads must be >= 1");
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  if (corpus_dir.empty())
    corpus_dir = "/tmp/cfs_bench_scale_" + std::to_string(::getpid());

  bench::header("Out-of-core scale (wall + peak RSS vs campaign volume)",
                "not a paper artefact — engine check: the spilled corpus "
                "keeps peak RSS bounded while trace volume grows");

  PipelineConfig config = PipelineConfig::paper_scale();
  if (scale == "tiny") config = PipelineConfig::tiny();
  if (scale == "small") config = PipelineConfig::small_scale();

  bool ok = true;
  std::vector<Sample> samples;
  std::cout << "scale " << scale << ", campaign x" << mult << ", threads "
            << threads << "\n\n";

  Sample memory_arm;
  Sample spill_arm;
  try {
    memory_arm = run_arm(config, mult, threads, false, corpus_dir);
    samples.push_back(memory_arm);
    std::filesystem::remove_all(corpus_dir);
    spill_arm = run_arm(config, mult, threads, true, corpus_dir);
    samples.push_back(spill_arm);
    std::filesystem::remove_all(corpus_dir);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  Table table({"Engine", "Traces", "Wall ms", "Campaign ms", "CFS ms",
               "Resolved", "Peak RSS MiB", "Corpus MiB"});
  for (const Sample& s : samples)
    table.add_row(
        {s.engine, Table::cell(std::uint64_t{s.traces}),
         Table::cell(s.wall_ms), Table::cell(s.campaign_ms),
         Table::cell(s.cfs_ms), Table::cell(std::uint64_t{s.resolved}),
         Table::cell(s.peak_rss_bytes / (1024.0 * 1024.0)),
         Table::cell(s.corpus_bytes / (1024.0 * 1024.0))});
  table.print(std::cout);

  // Bar 1: the spill engine is the same inference, just out of core.
  if (spill_arm.traces != memory_arm.traces ||
      spill_arm.resolved != memory_arm.resolved) {
    std::cout << "\nFAIL: spill arm diverged (traces " << spill_arm.traces
              << " vs " << memory_arm.traces << ", resolved "
              << spill_arm.resolved << " vs " << memory_arm.resolved << ")\n";
    ok = false;
  }

  // Bar 2: peak RSS. The whole point of spilling.
  const double rss_ratio =
      memory_arm.peak_rss_bytes > 0.0
          ? spill_arm.peak_rss_bytes / memory_arm.peak_rss_bytes
          : 1.0;
  std::cout << "\npeak RSS: spill "
            << Table::cell(spill_arm.peak_rss_bytes / (1024.0 * 1024.0))
            << " MiB vs in-memory "
            << Table::cell(memory_arm.peak_rss_bytes / (1024.0 * 1024.0))
            << " MiB — ratio " << Table::cell(rss_ratio) << " (bar: "
            << Table::cell(rss_bar) << ")\n";
  if (rss_ratio > rss_bar) {
    std::cout << "FAIL: spill peak RSS above the " << Table::cell(rss_bar)
              << "x bar\n";
    ok = false;
  }

  const JsonValue document = to_json(samples, rss_ratio, rss_bar);
  if (!baseline_list.empty()) {
    BenchGuardSpec spec;
    spec.keys = {"engine", "mult", "threads"};
    spec.metric = "wall_ms";
    const BenchGuardResult guard = check_bench_baseline_files(
        document, split_baseline_list(baseline_list), spec);
    for (const std::string& failure : guard.failures)
      std::cout << "FAIL: " << failure << "\n";
    for (const std::string& note : guard.notes) std::cout << note << "\n";
    ok = guard.ok && ok;
  }

  std::ofstream out(out_path);
  out << document.pretty() << "\n";
  std::cout << "samples written to " << out_path << "\n";

  std::cout << "\n" << (ok ? "OK" : "FAILED") << "\n";
  return ok ? 0 : 1;
}
