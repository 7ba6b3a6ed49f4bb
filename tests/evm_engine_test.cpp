// The execution-engine boundary (src/evm/engine.hpp): registry contents
// and ordering, unknown-name rejection, legacy-flag mapping, profile
// projection, host-callback forwarding, N-way pairwise engine
// equivalence, and registering a fourth engine at runtime.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "channel/manager.hpp"
#include "evm/asm.hpp"
#include "evm/code_cache.hpp"
#include "evm/engine.hpp"
#include "evm/vm.hpp"

namespace tinyevm::evm {
namespace {

Bytes add_program() {
  Assembler a;  // PUSH1 1 PUSH1 2 ADD; leaves 3 on the stack
  a.push(1).push(2).op(Opcode::ADD);
  return a.take();
}

ExecResult run(const VmConfig& config, const Bytes& code,
               std::shared_ptr<CodeCache> cache = nullptr) {
  channel::SensorBank sensors;
  sensors.set_reading(7, U256{22});
  channel::DeviceHost host(sensors, config);
  Vm vm{config, std::move(cache)};
  Message msg;
  msg.code = code;
  return vm.execute(host, msg);
}

TEST(EngineRegistry, EnumerationLeadsWithTheBuiltins) {
  const std::vector<std::string> names = EngineRegistry::instance().names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], kRawEngine);
  EXPECT_EQ(names[1], kPredecodedEngine);
  EXPECT_EQ(names[2], kElidedEngine);
  for (const std::string& name : names) {
    const ExecutionEngine* engine = EngineRegistry::instance().find(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
    EXPECT_FALSE(engine->description().empty()) << name;
  }
  EXPECT_FALSE(EngineRegistry::instance().find(kRawEngine)
                   ->uses_translation());
  EXPECT_TRUE(EngineRegistry::instance().find(kPredecodedEngine)
                  ->uses_translation());
  EXPECT_TRUE(EngineRegistry::instance().find(kElidedEngine)
                  ->uses_translation());
}

TEST(EngineRegistry, UnknownNamesAreRejectedEverywhere) {
  EXPECT_EQ(EngineRegistry::instance().find("no-such-engine"), nullptr);
  try {
    (void)EngineRegistry::instance().require("no-such-engine");
    FAIL() << "require() accepted an unknown engine";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-engine"), std::string::npos);
    EXPECT_NE(what.find("raw"), std::string::npos);  // lists the registry
  }

  VmConfig config = VmConfig::tiny();
  config.engine = "no-such-engine";
  EXPECT_THROW(Vm{config}, std::invalid_argument);
}

TEST(EngineRegistry, EngineNamesSelectEngines) {
  VmConfig config = VmConfig::tiny();
  // An empty name means the default engine.
  EXPECT_EQ(Vm{config}.engine_name(), kElidedEngine);
  EXPECT_EQ(Vm{VmConfig::ethereum()}.engine_name(), kElidedEngine);

  for (const std::string_view name :
       {kRawEngine, kPredecodedEngine, kElidedEngine}) {
    config.engine = name;
    EXPECT_EQ(Vm{config}.engine_name(), name);
  }
}

TEST(EngineProfileTest, FromConfigProjectsTheSemanticsFields) {
  VmConfig config = VmConfig::ethereum();
  config.max_ops = 1234;
  const EngineProfile profile = EngineProfile::from_config(config);
  EXPECT_EQ(profile.revision, EngineRevision::Ethereum);
  EXPECT_EQ(profile.stack_limit, config.stack_limit);
  EXPECT_EQ(profile.memory_limit, config.memory_limit);
  EXPECT_EQ(profile.storage_limit, config.storage_limit);
  EXPECT_EQ(profile.metering, config.metering);
  EXPECT_EQ(profile.block_opcodes, config.block_opcodes);
  EXPECT_EQ(profile.iot_opcodes, config.iot_opcodes);
  EXPECT_EQ(profile.gas_introspection, config.gas_introspection);
  EXPECT_EQ(profile.max_call_depth, config.max_call_depth);
  EXPECT_EQ(profile.max_ops, config.max_ops);

  const EngineProfile tiny = EngineProfile::from_config(VmConfig::tiny());
  EXPECT_EQ(tiny.revision, EngineRevision::TinyEvm);
}

TEST(HostInterfaceTest, WrapForwardsToTheVirtualHost) {
  channel::SensorBank sensors;
  sensors.set_reading(3, U256{77});
  const VmConfig config = VmConfig::tiny();
  channel::DeviceHost host(sensors, config);
  const HostInterface iface = HostInterface::wrap(host);

  const Address self{};
  EXPECT_TRUE(iface.sstore(self, U256{5}, U256{99}));
  EXPECT_EQ(iface.sload(self, U256{5}), U256{99});
  EXPECT_EQ(host.sload(self, U256{5}), U256{99});  // same underlying host

  SensorRequest req;
  req.device_id = 3;
  const auto reading = iface.sensor_access(req);
  ASSERT_TRUE(reading.has_value());
  EXPECT_EQ(*reading, U256{77});

  LogEntry entry;
  entry.address = self;
  iface.emit_log(entry);
  EXPECT_EQ(host.logs().size(), 1u);
}

TEST(EngineDifferential, PairwiseSweepAcrossTheRegistry) {
  // A handful of shape-diverse programs, each swept across every engine
  // pair: all engines must agree on every observable result field. The
  // heavyweight corpus/fuzz version of this lives in evm_dispatch_test
  // (goldens) and tools/fuzz_translator.cpp.
  std::vector<Bytes> programs;
  programs.push_back(add_program());
  {
    Assembler a;  // counting loop through a JUMPDEST
    a.push(10);
    a.op(Opcode::JUMPDEST);
    a.push(1).swap(1).op(Opcode::SUB);
    a.dup(1);
    a.push(2).op(Opcode::JUMPI);
    a.op(Opcode::POP);
    programs.push_back(a.take());
  }
  {
    Assembler a;  // memory + storage traffic, RETURN payload
    a.push(0xAB).push(0).op(Opcode::MSTORE);
    a.push(0xCD).push(1).op(Opcode::SSTORE);
    a.push(32).push(0).op(Opcode::RETURN);
    programs.push_back(a.take());
  }
  programs.push_back(Bytes{0x60, 0x01, 0x01});  // PUSH+ADD underflow
  programs.push_back(Bytes{0x7f, 0xAA});        // truncated PUSH32

  const std::vector<std::string> engines = EngineRegistry::instance().names();
  for (const VmConfig& config : {VmConfig::tiny(), VmConfig::ethereum()}) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      std::vector<ExecResult> results;
      results.reserve(engines.size());
      for (const std::string& engine : engines) {
        VmConfig run_config = config;
        run_config.engine = engine;
        results.push_back(
            run(run_config, programs[p], std::make_shared<CodeCache>()));
      }
      for (std::size_t i = 0; i < results.size(); ++i) {
        for (std::size_t j = i + 1; j < results.size(); ++j) {
          SCOPED_TRACE("program " + std::to_string(p) + ": " + engines[i] +
                       " vs " + engines[j]);
          EXPECT_EQ(results[i].status, results[j].status);
          EXPECT_EQ(results[i].output, results[j].output);
          EXPECT_EQ(results[i].gas_left, results[j].gas_left);
          EXPECT_EQ(results[i].stats.ops_executed,
                    results[j].stats.ops_executed);
          EXPECT_EQ(results[i].stats.mcu_cycles, results[j].stats.mcu_cycles);
          EXPECT_EQ(results[i].stats.max_stack_pointer,
                    results[j].stats.max_stack_pointer);
          EXPECT_EQ(results[i].stats.peak_memory,
                    results[j].stats.peak_memory);
        }
      }
    }
  }
}

/// A fourth engine: delegates to "raw" under a new name — the smallest
/// possible proof that the registry is open for extension.
class MirrorEngine final : public ExecutionEngine {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "test-mirror";
  }
  [[nodiscard]] std::string_view description() const override {
    return "test-only delegate to the raw engine";
  }
  [[nodiscard]] bool uses_translation() const override { return false; }
  [[nodiscard]] EngineResult execute(const HostInterface& host,
                                     const EngineContext& ctx,
                                     const EngineMessage& msg) const override {
    return EngineRegistry::instance().require(kRawEngine).execute(host, ctx,
                                                                  msg);
  }
};

TEST(EngineRegistry, ZRuntimeRegistrationAddsAFourthEngine) {
  // Prefixed Z: registration is permanent (engines are never removed), so
  // this runs after the enumeration/differential tests above. The N-way
  // harnesses pick the new engine up automatically on later runs within
  // this process — which is exactly the promised extension story.
  if (EngineRegistry::instance().find("test-mirror") == nullptr) {
    EXPECT_TRUE(
        EngineRegistry::instance().add(std::make_unique<MirrorEngine>()));
  }
  EXPECT_FALSE(
      EngineRegistry::instance().add(std::make_unique<MirrorEngine>()))
      << "duplicate names must be rejected";

  VmConfig config = VmConfig::tiny();
  config.engine = "test-mirror";
  const ExecResult mirrored = run(config, add_program());

  VmConfig raw_config = VmConfig::tiny();
  raw_config.engine = kRawEngine;
  const ExecResult raw = run(raw_config, add_program());
  EXPECT_EQ(mirrored.status, raw.status);
  EXPECT_EQ(mirrored.output, raw.output);
  EXPECT_EQ(mirrored.stats.ops_executed, raw.stats.ops_executed);
  EXPECT_EQ(mirrored.stats.mcu_cycles, raw.stats.mcu_cycles);
}

}  // namespace
}  // namespace tinyevm::evm
