// armusbench: the closed-loop benchmark binary. One process runs one
// workload and prints, as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:value}}
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// measure an untraced and a traced phase back to back and report the
// per-layer metrics: every layer figure the workload measured, each under
// its `<module>.<what>` name. The units, and the metrics each sheet
// reports, are declared in BENCHMARK.json, which run.py applies. Exits 1
// when any verdict gate failed.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace armusbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "armusbench: " << why
            << "\nusage: armusbench --workload "
               "<avoid_local|barrier_kv|sites_kv|predict_trace> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--miscount] "
               "[--scratch-dir <dir>] [--spans-out <file>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--miscount") {
      options.miscount = true;
    } else if (arg == "--scratch-dir") {
      options.scratch_dir = value();
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

WorkloadFn lookup(const std::string& name) {
  static const std::map<std::string, WorkloadFn> table = {
      {"avoid_local", run_avoid_local},
      {"barrier_kv", run_barrier_kv},
      {"sites_kv", run_sites_kv},
      {"predict_trace", run_predict_trace},
  };
  auto it = table.find(name);
  if (it == table.end()) usage("unknown workload '" + name + "'");
  return it->second;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: it survives exec, so it can report the launching process.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// The span-derived entries of the per-layer sheet: `<span>_us.p50`, `.p99`
/// and `.n` for every span name, and `phaser.self_us.{p50,n}` from the self
/// time of `phaser.advance`.
void add_span_metrics(Metrics& sheet,
                      std::map<std::string, SpanSamples>& spans) {
  auto add = [&](const std::string& base, std::vector<double>& samples) {
    sheet.set(base + "_us.p50", percentile(samples, 50));
    sheet.set(base + "_us.p99", percentile(samples, 99));
    sheet.set(base + "_us.n", static_cast<double>(samples.size()));
  };
  for (auto& [name, samples] : spans) add(name, samples.total_us);
  auto advance = spans.find("phaser.advance");
  if (advance != spans.end()) add("phaser.self", advance->second.self_us);
}

}  // namespace

int run(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const WorkloadFn workload = lookup(options.workload);
  const double warmup = std::min(1.0, options.seconds / 10.0);
  const double window_s = std::min(0.5, options.seconds / 20.0);
  Metrics sheet;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (!options.trace) {
    PhaseSpec spec{warmup, options.seconds, 5, 1.0, false};
    PhaseResult result(window_s);
    workload(options, spec, result);
    Meter& m = result.meter;
    sheet.set("setup_s", result.setup_s);
    sheet.set("ops_per_s", m.rate());
    sheet.set("op_p50_us", m.op_p50());
    sheet.set("detect_p50_us", m.detect_p50());
    sheet.set("peak_rss_mb", peak_rss_mib());
    attempted = m.attempted();
    failed = m.failed();
  } else {
    // Untraced then traced, each for half the time, each on a fresh build.
    const double half = options.seconds / 2.0;
    PhaseResult plain(window_s);
    workload(options, PhaseSpec{warmup / 2.0, half, 1, 0, false}, plain);
    PhaseResult traced(window_s);
    workload(options, PhaseSpec{warmup / 2.0, half, 1, 0, true}, traced);

    std::map<std::string, SpanSamples> spans = tracing_collect();
    add_span_metrics(sheet, spans);
    sheet.merge(traced.layers);
    Meter& m = traced.meter;
    sheet.set("bench.tracing_overhead_ratio",
              plain.meter.rate() == 0 ? 0.0 : m.rate() / plain.meter.rate());
    std::uint64_t span_count = 0;
    for (const auto& [name, samples] : spans) {
      span_count += samples.total_us.size();
    }
    sheet.set("bench.spans", static_cast<double>(span_count));
    sheet.set("bench.spans_dropped", static_cast<double>(tracing_dropped()));
    sheet.set("op_p90_us", percentile(m.ops(), 90));
    sheet.set("op_p99_us", percentile(m.ops(), 99));
    sheet.set("op_samples", static_cast<double>(m.ops().count()));
    sheet.set("detect_p99_us", percentile(m.detects(), 99));
    sheet.set("detect_samples", static_cast<double>(m.detects().count()));
    attempted = plain.meter.attempted() + m.attempted();
    failed = plain.meter.failed() + m.failed();
    sheet.set("fail_ratio", attempted == 0
                                ? 0.0
                                : static_cast<double>(failed) /
                                      static_cast<double>(attempted));
    if (!options.spans_out.empty() && !tracing_write(options.spans_out)) {
      std::cerr << "armusbench: cannot write " << options.spans_out << '\n';
    }
  }

  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << sheet.json() << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace armusbench

int main(int argc, char** argv) {
  try {
    return armusbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "armusbench: " << e.what() << '\n';
    return 1;
  }
}
