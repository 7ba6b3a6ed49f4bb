// tinyevm_benchmark — the end-to-end benchmark (BENCHMARK.json).
//
//   tinyevm_benchmark --workload pay_steady --seed 3 --seconds 20 --trace 0
//   tinyevm_benchmark --workload all            # every workload in turn
//   tinyevm_benchmark --smoke                   # tiny sizes, self-checks
//   tinyevm_benchmark --print-input-digest --workload all --seed 2
//
// Human-readable report lines go to stdout first; the last line of stdout
// is one JSON object {"correct","attempted","failed","metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1). Any
// correctness failure exits 1.
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common.hpp"
#include "obs/trace.hpp"

#ifndef TINYEVM_E2E_BUILD_TYPE
#define TINYEVM_E2E_BUILD_TYPE "unknown"
#endif
#ifndef TINYEVM_E2E_COMMIT
#define TINYEVM_E2E_COMMIT "unknown"
#endif

using namespace tinyevm;
using namespace tinyevm::e2e;

namespace {

struct Args {
  std::vector<Workload> workloads;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  bool print_digest = false;
  std::string result_dir;
};

void usage() {
  std::printf(
      "usage: tinyevm_benchmark [options]\n"
      "  --workload <name|all>   pay_steady, pay_saturate, fleet_join,\n"
      "                          corpus_deploy, or all (default all)\n"
      "  --seed <n>              input seed (default 1)\n"
      "  --seconds <s>           measured window per run (default 20)\n"
      "  --trace <0|1>           1: also a traced window and the layer\n"
      "                          replay; the last line holds per-layer\n"
      "                          metrics\n"
      "  --result-dir <dir>      also write one result JSON per workload\n"
      "  --print-input-digest    print each workload's input digest, exit\n"
      "  --smoke                 all workloads at tiny sizes plus the\n"
      "                          BENCHMARK.json and determinism checks\n");
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--print-input-digest") {
      a.print_digest = true;
    } else if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      if (name == "all") {
        a.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
      } else if (const auto w = parse_workload(name)) {
        a.workloads = {*w};
      } else {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return std::nullopt;
      }
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
      if (!(a.seconds > 0)) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return std::nullopt;
      }
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--result-dir" && has_value) {
      a.result_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n", arg.c_str());
      usage();
      return std::nullopt;
    }
  }
  if (a.workloads.empty() || a.smoke) {
    a.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  }
  return a;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

/// {"name": {"value": v, "unit": u[, "samples": n]}, ...}
std::string metrics_json(const std::vector<Metric>& metrics,
                         const std::string& prefix, bool samples) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + prefix + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string stamp() {
  return std::string("build ") + TINYEVM_E2E_BUILD_TYPE + ", nproc " +
         std::to_string(nproc()) + ", commit " + TINYEVM_E2E_COMMIT;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-30s %16.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void print_report(const RunOptions& o, const RunResult& r) {
  std::printf("== %s  seed %llu  %.6g s  trace %d  (%s)\n",
              name_of(o.workload), static_cast<unsigned long long>(o.seed),
              o.sizes.seconds, o.trace ? 1 : 0, stamp().c_str());
  std::printf("  correct %s  attempted %llu  failed %llu\n",
              r.correct ? "yes" : "NO",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics("end-to-end", r.end_to_end);
  print_metrics("per-layer", r.per_layer);
  print_metrics("also reported", r.report_only);
  for (const std::string& e : r.errors) std::printf("  error: %s\n", e.c_str());
  std::fflush(stdout);
}

RunResult run_one(const RunOptions& o) {
  RunResult r;
  try {
    r = is_hub(o.workload) ? run_hub_workload(o) : run_corpus_workload(o);
  } catch (const std::exception& e) {
    r.fail(e.what());
  }
  if (o.trace) {
    const std::string path = o.run_dir + "/trace-" + name_of(o.workload) +
                             "-seed" + std::to_string(o.seed) + ".json";
    if (obs::Tracer::instance().write_chrome_trace(path)) {
      std::printf("  chrome trace: %s\n", path.c_str());
    }
    obs::Tracer::instance().disable();
  }
  return r;
}

void write_result(const std::string& dir, const RunOptions& o,
                  const RunResult& r) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name_of(o.workload) + "-s" +
                           std::to_string(o.seed) + "-t" +
                           (o.trace ? "1" : "0") + "-" +
                           std::to_string(::getpid()) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << name_of(o.workload) << "\", \"seed\": "
      << o.seed << ", \"seconds\": " << number(o.sizes.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"build_type\": \""
      << TINYEVM_E2E_BUILD_TYPE << "\", \"nproc\": " << nproc()
      << ", \"commit\": \"" << TINYEVM_E2E_COMMIT << "\", \"correct\": "
      << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed
      << ", \"end_to_end\": " << metrics_json(r.end_to_end, "", true)
      << ", \"per_layer\": " << metrics_json(r.per_layer, "", true)
      << ", \"report_only\": " << metrics_json(r.report_only, "", true)
      << "}\n";
}

/// The "name" values inside BENCHMARK.json's `key` array.
std::set<std::string> names_in(const std::string& json,
                               const std::string& key) {
  std::set<std::string> names;
  const std::size_t start = json.find("\"" + key + "\"");
  if (start == std::string::npos) return names;
  const std::size_t end = json.find(']', start);
  for (std::size_t at = json.find("\"name\"", start); at < end;
       at = json.find("\"name\"", at + 1)) {
    const std::size_t open = json.find('"', json.find(':', at) + 1);
    const std::size_t close = json.find('"', open + 1);
    names.insert(json.substr(open + 1, close - open - 1));
  }
  return names;
}

/// The --smoke checks beyond each run's own: every metric BENCHMARK.json
/// names is produced, and inputs are a function of the seed alone.
bool smoke_checks(const std::vector<std::pair<RunOptions, RunResult>>& runs) {
  bool ok = true;
  const auto fail = [&ok](const std::string& why) {
    std::printf("smoke: %s\n", why.c_str());
    ok = false;
  };
  std::ifstream in(TINYEVM_BENCHMARK_JSON);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto e2e = names_in(json, "end_to_end");
  const auto layers = names_in(json, "per_layer");
  if (e2e.empty() || layers.empty()) {
    fail(std::string("no metric names read from ") + TINYEVM_BENCHMARK_JSON);
  }
  for (const auto& [o, r] : runs) {
    if (!r.correct) fail(std::string(name_of(o.workload)) + " failed");
    const auto missing = [&](const std::set<std::string>& want,
                             const std::vector<Metric>& got) {
      for (const std::string& name : want) {
        bool found = false;
        for (const Metric& m : got) found = found || m.name == name;
        if (!found) {
          fail(std::string(name_of(o.workload)) + " did not report " + name);
        }
      }
    };
    missing(e2e, r.end_to_end);
    missing(layers, r.per_layer);
    const Hash256 d1 = input_digest(o.workload, 1, o.sizes);
    if (input_digest(o.workload, 1, o.sizes) != d1) {
      fail(std::string(name_of(o.workload)) + ": seed 1 inputs not repeatable");
    }
    if (input_digest(o.workload, 2, o.sizes) == d1) {
      fail(std::string(name_of(o.workload)) +
           ": seeds 1 and 2 give equal inputs");
    }
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return 2;
  // Open-loop sends are scheduled to the microsecond; the default 50 µs
  // timer slack would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL);

  const Sizes sizes =
      args->smoke ? Sizes::smoke() : Sizes::full(args->seconds);
  if (args->print_digest) {
    for (const Workload w : args->workloads) {
      std::printf("%s %s\n", name_of(w),
                  to_hex(input_digest(w, args->seed, sizes)).c_str());
    }
    return 0;
  }
  if (!args->smoke && std::string(TINYEVM_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "error: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release (--smoke runs in any build)\n",
                 TINYEVM_E2E_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(TINYEVM_E2E_RUN_DIR);

  std::vector<std::pair<RunOptions, RunResult>> runs;
  for (const Workload w : args->workloads) {
    RunOptions o;
    o.workload = w;
    o.seed = args->seed;
    o.trace = args->trace || args->smoke;
    o.sizes = sizes;
    o.hubd_path = TINYEVM_HUBD_PATH;
    o.run_dir = TINYEVM_E2E_RUN_DIR;
    RunResult r = run_one(o);
    print_report(o, r);
    if (!args->result_dir.empty()) write_result(args->result_dir, o, r);
    runs.emplace_back(std::move(o), std::move(r));
  }
  bool ok = !args->smoke || smoke_checks(runs);

  // The last line. One workload: its metrics by name; several: prefixed
  // with the workload.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics = "{";
  for (const auto& [o, r] : runs) {
    ok = ok && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix =
        runs.size() == 1 ? "" : std::string(name_of(o.workload)) + ".";
    std::string body =
        metrics_json(o.trace && !args->smoke ? r.per_layer : r.end_to_end,
                     prefix, false);
    body = body.substr(1, body.size() - 2);
    if (!body.empty()) metrics += (metrics.size() > 1 ? ", " : "") + body;
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return ok ? 0 : 1;
}
