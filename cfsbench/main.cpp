// Benchmark binary: runs one workload of the repository benchmark for a
// seed and a duration, checks its outputs, and prints one JSON result as
// the last line of standard output. run.py builds and invokes it; see
// README.md for the workloads and metrics.
//
//   cfsbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
#include <sched.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "catalog.h"
#include "common.h"
#include "io/json.h"
#include "util/flags.h"
#include "util/trace.h"

namespace {

using namespace cfsbench;

struct Workload {
  const char* name;
  int pool_threads;  // worker threads it runs at once
  int connections;   // client connections it holds open at once
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"infer_paper", kInferThreads, 0, run_infer},
    {"stream_paper", 0, 0, run_stream},
    {"serve_paper", kServeWorkers, kServeClients, run_serve},
};

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// The per-layer table beside the Chrome trace, and on stdout.
void write_layer_artifacts(const Options& options, const Outcome& out) {
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  cfs::Trace::disable();
  std::ofstream trace(stem + ".trace.json");
  cfs::Trace::write_chrome_trace(trace);
  std::ofstream table(stem + ".layers.tsv");
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = out.metrics.find(spec.name);
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    table << spec.name << '\t' << value << '\t' << spec.unit << '\n';
    std::cout << "  " << std::left << std::setw(38) << spec.name << value
              << ' ' << spec.unit << '\n';
  }
  if (!trace.flush() || !table.flush())
    throw std::runtime_error("cannot write " + stem + ".*");
  std::cout << "chrome trace: " << stem << ".trace.json\nlayer table: " << stem
            << ".layers.tsv\n";
}

// Prints the result line. An end-to-end metric that is missing, not
// finite or not positive makes the result incorrect: every one of them
// must be measured on every workload.
void print_result(const Options& options, const Outcome& out) {
  const std::span<const MetricSpec> catalog =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  bool complete = true;
  cfs::JsonValue::Object metrics;
  for (const MetricSpec& spec : catalog) {
    const auto it = out.metrics.find(spec.name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    if (!options.trace && !(value > 0.0)) {
      complete = false;
      std::cerr << "cfsbench: " << spec.name << " was not measured\n";
    }
    cfs::JsonValue::Object metric;
    metric.emplace("value", value);
    metric.emplace("unit", spec.unit);
    metrics.emplace(spec.name, std::move(metric));
  }
  cfs::JsonValue::Object result;
  result.emplace("correct", complete && out.failed == 0);
  result.emplace("attempted", std::max<std::uint64_t>(out.attempted, 1));
  result.emplace("failed", out.failed);
  result.emplace("metrics", std::move(metrics));
  std::cout << cfs::JsonValue(std::move(result)).dump() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cfs::Flags flags(argc, argv);
    Options options;
    options.workload = flags.get("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.seconds = flags.get_double("seconds", 10.0);
    const std::int64_t trace = flags.get_int("trace", 0);
    options.out_dir = flags.get("out-dir", ".bench_build/run");
    const std::string unknown = flags.unknown_flags_message();
    if (!unknown.empty()) throw std::invalid_argument(unknown);
    if (trace != 0 && trace != 1)
      throw std::invalid_argument("--trace takes 0 or 1");
    if (!(options.seconds > 0.0))
      throw std::invalid_argument("--seconds must be positive");
    options.trace = trace == 1;

    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads)
      if (options.workload == w.name) workload = &w;
    if (workload == nullptr)
      throw std::invalid_argument("unknown --workload '" + options.workload +
                                  "' (infer_paper|stream_paper|serve_paper)");

    const int nproc = host_cpus();
    std::cout << "host: nproc=" << nproc
              << " pool_threads=" << workload->pool_threads
              << " connections=" << workload->connections << "\n";
    if (workload->pool_threads + workload->connections > nproc) {
      std::cerr << "cfsbench: " << workload->name << " needs "
                << workload->pool_threads + workload->connections
                << " CPUs for its threads and connections; this host has "
                << nproc << "\n";
      return 3;
    }
    std::filesystem::create_directories(options.out_dir);

    Outcome out = workload->run(options);
    if (options.trace) {
      out.metrics["host.nproc"] = nproc;
      out.metrics["host.pool_threads"] = workload->pool_threads;
      out.metrics["host.connections"] = workload->connections;
      write_layer_artifacts(options, out);
    }
    print_result(options, out);
    return 0;
  } catch (const std::invalid_argument& error) {
    std::cerr << "cfsbench: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "cfsbench: " << error.what() << "\n";
    return 4;
  }
}
