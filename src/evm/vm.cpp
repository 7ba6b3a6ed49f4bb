#include "evm/vm.hpp"

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "evm/code_cache.hpp"
#include "evm/decoded.hpp"
#include "evm/engine.hpp"
#include "evm/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tinyevm::evm {

namespace {

/// Resolves the configured engine name; empty means the span fast path.
std::string_view engine_for(const VmConfig& config) {
  return config.engine.empty() ? kElidedEngine : config.engine;
}

/// Registry instruments for one engine, interned once per engine name so
/// the execute hot path never takes the registry mutex. The per-status
/// counters are pre-created (all 15 Status values), keeping scrape output
/// deterministic for a given engine set.
struct EngineInstruments {
  static constexpr std::size_t kStatuses =
      static_cast<std::size_t>(Status::WatchdogExpired) + 1;
  std::array<obs::Counter*, kStatuses> executions{};
  obs::Counter* ops = nullptr;
  obs::Counter* gas = nullptr;
  obs::Histogram* latency = nullptr;

  explicit EngineInstruments(const std::string& engine) {
    auto& registry = obs::Registry::instance();
    for (std::size_t s = 0; s < kStatuses; ++s) {
      executions[s] = &registry.counter(
          "tinyevm_vm_executions_total",
          "Vm::execute calls by execution engine and final status",
          {{"engine", engine},
           {"status", std::string(to_string(static_cast<Status>(s)))}});
    }
    ops = &registry.counter("tinyevm_vm_ops_total",
                            "EVM instructions retired, per engine",
                            {{"engine", engine}});
    gas = &registry.counter(
        "tinyevm_vm_gas_used_total",
        "Gas consumed (metering profiles only), per engine",
        {{"engine", engine}});
    latency = &registry.histogram("tinyevm_vm_execute_us",
                                  "Vm::execute wall time in microseconds",
                                  {{"engine", engine}});
  }
};

EngineInstruments& instruments_for(std::string_view engine) {
  static std::mutex mu;
  static std::unordered_map<std::string,
                            std::unique_ptr<EngineInstruments>>* table =
      new std::unordered_map<std::string, std::unique_ptr<EngineInstruments>>();
  std::lock_guard lock(mu);
  auto it = table->find(std::string(engine));
  if (it == table->end()) {
    it = table
             ->emplace(std::string(engine),
                       std::make_unique<EngineInstruments>(std::string(engine)))
             .first;
  }
  return *it->second;
}

}  // namespace

Vm::Vm(VmConfig config, std::shared_ptr<CodeCache> cache)
    : config_(std::move(config)),
      profile_(EngineProfile::from_config(config_)),
      engine_(&EngineRegistry::instance().require(engine_for(config_))),
      dispatch_(std::make_shared<const DispatchTable>(
          build_dispatch_table(profile_))),
      cache_(cache ? std::move(cache) : CodeCache::shared_default()) {}

ExecResult Vm::execute(Host& host, const Message& msg) const {
  // A translation-consuming engine executes the cached pre-decoded
  // stream. A null program (empty code, or code past the cache's size
  // cap) falls back to the raw threaded loop inside the engine, which
  // decodes per run.
  std::shared_ptr<const DecodedProgram> program;
  if (engine_->uses_translation()) {
    program = cache_->get_or_translate(
        msg.code, profile_.translation(),
        msg.code_hash ? &*msg.code_hash : nullptr);
  }

  const HostInterface host_interface = HostInterface::wrap(host);
  EngineMessage engine_msg;
  engine_msg.self = msg.self;
  engine_msg.caller = msg.caller;
  engine_msg.origin = msg.origin;
  engine_msg.value = msg.value;
  engine_msg.data = msg.data;
  engine_msg.code = msg.code;
  engine_msg.code_hash = msg.code_hash ? &*msg.code_hash : nullptr;
  engine_msg.gas = msg.gas;
  engine_msg.depth = msg.depth;
  engine_msg.is_static = msg.is_static;
  engine_msg.jump_trace = msg.jump_trace;

  EngineContext ctx;
  ctx.profile = &profile_;
  ctx.dispatch = dispatch_.get();
  ctx.program = program.get();

  if (!obs::metrics_enabled() && !obs::trace_enabled()) {
    return engine_->execute(host_interface, ctx, engine_msg);
  }

  obs::Span span("vm.execute", "vm");
  const auto start = std::chrono::steady_clock::now();
  ExecResult result = engine_->execute(host_interface, ctx, engine_msg);
  if (obs::metrics_enabled()) {
    const auto elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EngineInstruments& inst = instruments_for(engine_->name());
    const auto status = static_cast<std::size_t>(result.status);
    if (status < EngineInstruments::kStatuses) inst.executions[status]->inc();
    inst.ops->inc(result.stats.ops_executed);
    if (msg.gas > result.gas_left) {
      inst.gas->inc(static_cast<std::uint64_t>(msg.gas - result.gas_left));
    }
    inst.latency->record(static_cast<std::uint64_t>(elapsed_us));
  }
  span.set_arg(result.stats.ops_executed);
  return result;
}

}  // namespace tinyevm::evm
