// The TinyEVM interpreter.
//
// One interpreter, two profiles (paper §IV-B): the Ethereum profile meters
// gas, allows a 1024-deep stack and the blockchain opcodes; the TinyEVM
// profile removes gas ("no charging for the off-chain computations"), caps
// the stack at 3 KB / memory at 8 KB, truncates storage keys to 8 bits, and
// enables the 0x0c SENSOR opcode.
//
// Execution itself happens behind the EVMC-style boundary in engine.hpp:
// Vm resolves an ExecutionEngine from the registry (by VmConfig::engine,
// "elided" when empty), consults the translation cache when the engine
// wants a pre-decoded stream, and dispatches — Vm::execute is cache
// lookup + engine dispatch, nothing more.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "evm/engine.hpp"
#include "evm/host.hpp"
#include "evm/opcodes.hpp"
#include "evm/state.hpp"
#include "u256/u256.hpp"

namespace tinyevm::evm {

class CodeCache;

enum class VmProfile : std::uint8_t { Ethereum, TinyEvm };

struct VmConfig {
  VmProfile profile = VmProfile::TinyEvm;
  std::size_t stack_limit = 96;      ///< elements (96 * 32 B = 3 KB)
  std::size_t memory_limit = 8192;   ///< bytes; 0 = unbounded (gas-bounded)
  std::size_t storage_limit = 1024;  ///< TinyEVM side-chain budget (bytes)
  bool metering = false;             ///< charge gas, abort on exhaustion
  bool block_opcodes = false;        ///< BLOCKHASH..GASLIMIT available
  bool iot_opcodes = true;           ///< SENSOR (0x0c) available
  bool gas_introspection = false;    ///< GAS/GASPRICE/EXTCODE* available
  int max_call_depth = 8;            ///< nested frames an MCU can afford
  /// Watchdog: abort after this many executed operations (0 = unlimited).
  /// Gas bounds on-chain execution; off-chain the mote's watchdog timer
  /// plays that role — without it a buggy contract would wedge the device.
  std::uint64_t max_ops = 50'000'000;
  /// Execution engine name (EngineRegistry). Empty = the default,
  /// "elided"; unknown names make the Vm constructor throw
  /// std::invalid_argument. Not part of the semantics: every engine must
  /// produce bit-identical results (tests/evm_dispatch_test.cpp).
  std::string engine;

  /// Original EVM (Istanbul-era) semantics.
  static VmConfig ethereum() {
    return VmConfig{.profile = VmProfile::Ethereum,
                    .stack_limit = 1024,
                    .memory_limit = 0,
                    .storage_limit = 0,
                    .metering = true,
                    .block_opcodes = true,
                    .iot_opcodes = false,
                    .gas_introspection = true,
                    .max_call_depth = 1024,
                    .max_ops = 0,
                    .engine = {}};
  }
  /// The paper's MCU configuration (§VI-A).
  static VmConfig tiny() { return VmConfig{}; }
};

/// Execution request: run `code` in the context of account `self`.
struct Message {
  Address self{};
  Address caller{};
  Address origin{};
  U256 value;
  Bytes data;
  Bytes code;
  /// keccak256(code) when the caller already knows it (the chain caches it
  /// per account); saves the translation cache a rehash per execution.
  std::optional<Hash256> code_hash;
  std::int64_t gas = 10'000'000;
  int depth = 0;
  bool is_static = false;
  /// Optional jump-trace collector, forwarded to the engine (see
  /// EngineMessage::jump_trace). Test/fuzz instrumentation only.
  std::vector<JumpEdge>* jump_trace = nullptr;
};

/// Execution results are the flat engine-boundary struct (engine.hpp).
using ExecResult = EngineResult;

/// JUMPDEST bitmap produced by one linear pre-pass over the code (PUSH
/// immediates are skipped, so data bytes can't alias a jump target).
class CodeAnalysis {
 public:
  explicit CodeAnalysis(std::span<const std::uint8_t> code);
  [[nodiscard]] bool valid_jumpdest(std::uint64_t pc) const {
    return pc < jumpdest_.size() && jumpdest_[pc];
  }

 private:
  std::vector<bool> jumpdest_;
};

/// Executes one message through the configured ExecutionEngine. Nested
/// CALL/CREATE are delegated to the host, which typically re-enters
/// another Vm::execute with depth+1.
///
/// When the engine consumes translations (every built-in except "raw"),
/// execution first consults a translation cache (code_cache.hpp) for a
/// pre-decoded instruction stream keyed by keccak256(code); a null `cache`
/// means the process-wide CodeCache::shared_default(), so independent Vm
/// instances reuse each other's translations.
class Vm {
 public:
  /// Throws std::invalid_argument when config.engine names no registered
  /// engine.
  explicit Vm(VmConfig config, std::shared_ptr<CodeCache> cache = nullptr);

  [[nodiscard]] const VmConfig& config() const { return config_; }
  /// The flat semantics descriptor handed to engines.
  [[nodiscard]] const EngineProfile& profile() const { return profile_; }
  /// The resolved default engine's registry name.
  [[nodiscard]] std::string_view engine_name() const {
    return engine_->name();
  }
  /// The translation cache this Vm consults.
  [[nodiscard]] const std::shared_ptr<CodeCache>& code_cache() const {
    return cache_;
  }

  ExecResult execute(Host& host, const Message& msg) const;

 private:
  VmConfig config_;
  EngineProfile profile_;
  const ExecutionEngine* engine_;  // registry-owned, process lifetime
  std::shared_ptr<const DispatchTable> dispatch_;
  std::shared_ptr<CodeCache> cache_;
};

}  // namespace tinyevm::evm
