// corpus_deploy: the paper's deployment experiment (Fig. 3) at scale,
// in-process. Each op is one contract; the window deploys a fixed number of
// seeded batches of fresh contracts through corpus::deploy_corpus_parallel
// on a fresh CodeCache, so every execution takes the translate / evict path.
#include <sys/resource.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>

#include "common.hpp"
#include "corpus/parallel.hpp"
#include "evm/code_cache.hpp"
#include "evm/engine.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace tinyevm::e2e {

namespace {

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double self_status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(key)) return std::stod(line.substr(key.size()));
  }
  return 0;
}

/// What the program under test needs before its first deployment.
struct Deployment {
  std::shared_ptr<evm::CodeCache> cache;
  std::unique_ptr<runtime::ThreadPool> pool;
};

struct CorpusWindow {
  std::vector<double> batch_ms;  ///< wall time of each deploy call
  /// Outcome of contract k * kCorpusCheckEvery of every batch, batch-major;
  /// only these are kept, so memory does not grow with the window.
  std::vector<corpus::DeploymentOutcome> sample;
  std::size_t contracts = 0;
  std::size_t deployed = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  double load_cpu_s = 0;
};

std::size_t sample_per_batch(const Sizes& s) {
  return (s.corpus_batch + kCorpusCheckEvery - 1) / kCorpusCheckEvery;
}

CorpusWindow deploy_window(const RunOptions& o, Deployment& dep) {
  const Sizes& s = o.sizes;
  CorpusWindow w;
  w.batch_ms.reserve(s.corpus_batches);
  w.sample.reserve(s.corpus_batches * sample_per_batch(s));
  corpus::ParallelDeployConfig config;
  config.workers = dep.pool->thread_count();
  config.code_cache = dep.cache;
  const double cpu0 = process_cpu_s();
  const double load0 = thread_cpu_s();
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < s.corpus_batches; ++b) {
    const corpus::Generator gen = corpus_batch(o.seed, b, s.corpus_batch);
    obs::Span span("bench.corpus.deploy_batch", "bench");
    span.set_arg(b);
    const auto start = Clock::now();
    const auto outcomes = corpus::deploy_corpus_parallel(
        *dep.pool, gen, evm::VmConfig::tiny(), config);
    w.batch_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    w.contracts += outcomes.size();
    for (const auto& outcome : outcomes) w.deployed += outcome.success;
    for (std::size_t i = 0; i < outcomes.size(); i += kCorpusCheckEvery) {
      w.sample.push_back(outcomes[i]);
    }
  }
  w.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  w.cpu_s = process_cpu_s() - cpu0;
  w.load_cpu_s = thread_cpu_s() - load0;
  return w;
}

/// Every kCorpusCheckEvery-th contract of every batch, redeployed on the
/// raw engine (the semantic reference) without a cache, must match bit for
/// bit.
std::uint64_t check_sample(const RunOptions& o, const CorpusWindow& w,
                           runtime::ThreadPool& pool) {
  const std::size_t per_batch = sample_per_batch(o.sizes);
  evm::VmConfig raw = evm::VmConfig::tiny();
  raw.engine = evm::kRawEngine;
  std::atomic<std::uint64_t> failed{0};
  runtime::parallel_for(pool, w.sample.size(), 4, [&](std::size_t k) {
    const corpus::Generator gen =
        corpus_batch(o.seed, k / per_batch, o.sizes.corpus_batch);
    const std::size_t i = (k % per_batch) * kCorpusCheckEvery;
    if (corpus::deploy_on_device(gen.make(i), raw) != w.sample[k]) {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return failed.load();
}

}  // namespace

RunResult run_corpus_workload(const RunOptions& o) {
  RunResult result;
  const std::size_t workers = nproc();
  std::vector<double> setup_times;
  Deployment dep;
  warm_up_cores(o.sizes.warm_up_s);
  for (std::size_t k = 0; k < o.sizes.setups; ++k) {
    dep = Deployment{};
    const auto t0 = Clock::now();
    dep.cache = std::make_shared<evm::CodeCache>();
    dep.pool = std::make_unique<runtime::ThreadPool>(workers);
    setup_times.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  const CorpusWindow w = deploy_window(o, dep);
  result.attempted = w.contracts;
  result.failed = check_sample(o, w, *dep.pool);
  if (result.failed != 0) {
    result.fail(std::to_string(result.failed) +
                " sampled deployments differ from the raw engine");
  }
  if (w.contracts == 0) result.fail("no contracts were deployed");
  if (!result.correct) return result;

  const auto n = w.contracts;
  const double ops = static_cast<double>(w.contracts);
  result.end_to_end = {
      {"throughput_ops_s", ops / w.elapsed_s, "ops/s", n},
      {"latency_p50_ms", quantile(w.batch_ms, 0.50), "ms", w.batch_ms.size()},
      {"latency_p99_ms", sliced_p99(w.batch_ms), "ms", w.batch_ms.size()},
      {"cpu_ms_per_op", w.cpu_s * 1e3 / ops, "ms", n},
      {"peak_rss_mb", self_status_kb("VmHWM:") / 1024, "MB", 1},
      {"setup_s", median(setup_times), "s", setup_times.size()},
  };
  result.report_only = {
      {"error_rate", static_cast<double>(result.failed) / ops, "ratio", n},
      {"corpus.deployed_ratio", static_cast<double>(w.deployed) / ops,
       "ratio", n},
  };
  if (!o.trace) return result;

  auto& layers = result.per_layer;
  layers = {
      {"net.wire_bytes_per_op", 0, "bytes", 0},
      {"net.batch_size_mean", 0, "count", 0},
      {"runtime.worker_busy_ratio",
       w.cpu_s / (static_cast<double>(workers) * w.elapsed_s), "ratio", 1},
      {"channel.rss_kb_per_session", 0, "KB", 0},
      {"loadgen.cpu_ms_per_op", w.load_cpu_s * 1e3 / ops, "ms", n},
  };

  // Traced window on a fresh cache and pool, with the program's own
  // counters on so the per-op counts come from the same instruments the
  // hub workloads scrape.
  Deployment traced_dep{std::make_shared<evm::CodeCache>(),
                        std::make_unique<runtime::ThreadPool>(workers)};
  obs::Tracer::instance().enable(1u << 17);
  obs::set_metrics_enabled(true);
  const std::string before = obs::prometheus_scrape();
  const CorpusWindow traced = deploy_window(o, traced_dep);
  const std::string after = obs::prometheus_scrape();
  obs::set_metrics_enabled(false);
  add_scrape_layers(before, after, static_cast<double>(traced.contracts),
                    layers);
  layers.push_back({"trace.overhead_pct",
                    percent_change(quantile(w.batch_ms, 0.5),
                                   quantile(traced.batch_ms, 0.5)),
                    "%", traced.batch_ms.size()});
  PayScript script;
  const auto replay = layer_replay(o.seed, o.sizes, script);
  layers.insert(layers.end(), replay.begin(), replay.end());
  return result;
}

}  // namespace tinyevm::e2e
