// The EVMC-style execution-engine boundary (ROADMAP "pluggable execution
// backend"). Everything an engine needs crosses this header: a revision
// enum plus a flat profile descriptor (EngineProfile), flat message/result
// structs (EngineMessage/EngineResult), and a host-callback function table
// (HostInterface) adapting the virtual Host — so an engine never touches a
// Host subclass, a VmConfig, or the cache directly. The three interpreter
// strategies that grew inside vm.cpp — raw token-threaded, checked
// pre-decoded, and check-elided — are separate engines behind this
// boundary, registered in the process-wide EngineRegistry and selected by
// VmConfig::engine. A future engine (the template JIT the ROADMAP scopes)
// plugs in by registering here and is differential-tested for free: the
// N-way harness in tests/evm_dispatch_test.cpp enumerates the registry.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "evm/host.hpp"
#include "u256/u256.hpp"

namespace tinyevm::evm {

struct VmConfig;
struct DispatchTable;
struct DecodedProgram;
struct TranslationProfile;

enum class Status : std::uint8_t {
  Success,
  Revert,
  OutOfGas,
  StackOverflow,
  StackUnderflow,
  OutOfMemory,       ///< TinyEVM 8 KB memory cap exceeded
  StorageExhausted,  ///< TinyEVM 1 KB side-chain storage cap exceeded
  InvalidJump,
  InvalidOpcode,     ///< undefined byte, or INVALID (0xfe)
  ForbiddenOpcode,   ///< opcode not in the active profile
  SensorFailure,     ///< SENSOR opcode: no such device / read failed
  CallDepthExceeded,
  StaticViolation,   ///< state mutation inside STATICCALL
  WatchdogExpired,   ///< EngineProfile::max_ops exceeded (runaway code)
};

[[nodiscard]] std::string_view to_string(Status s);

/// Which instruction-set semantics the engine runs (paper §IV-B): the
/// Ethereum profile meters gas and exposes the blockchain opcodes; the
/// TinyEVM profile drops gas, caps resources, and adds SENSOR (0x0c).
enum class EngineRevision : std::uint8_t { Ethereum, TinyEvm };

/// The flat execution-semantics descriptor engines consume — the
/// EVMC-revision analogue of VmConfig, without the engine name that
/// selects an engine rather than parameterizing one.
struct EngineProfile {
  EngineRevision revision = EngineRevision::TinyEvm;
  std::size_t stack_limit = 96;      ///< elements (96 * 32 B = 3 KB)
  std::size_t memory_limit = 8192;   ///< bytes; 0 = unbounded (gas-bounded)
  std::size_t storage_limit = 1024;  ///< TinyEVM side-chain budget (bytes)
  bool metering = false;             ///< charge gas, abort on exhaustion
  bool block_opcodes = false;        ///< BLOCKHASH..GASLIMIT available
  bool iot_opcodes = true;           ///< SENSOR (0x0c) available
  bool gas_introspection = false;    ///< GAS/GASPRICE/EXTCODE* available
  int max_call_depth = 8;            ///< nested frames an MCU can afford
  std::uint64_t max_ops = 50'000'000;  ///< watchdog; 0 = unlimited

  /// Projects the semantics fields out of a VmConfig.
  [[nodiscard]] static EngineProfile from_config(const VmConfig& config);
  /// The subset of flags that shape a bytecode translation — the
  /// CodeCache key component (decoded.hpp::TranslationProfile).
  [[nodiscard]] TranslationProfile translation() const;
};

/// Flat execution request. Spans alias the caller's buffers (EVMC-style:
/// the message does not own anything), so an EngineMessage is only valid
/// for the duration of the execute() call it is passed to.
/// One taken jump, as observed by a checked dispatch loop: the JUMP/JUMPI's
/// own pc and the destination actually followed. Collected only on request
/// (EngineMessage::jump_trace) so the fuzz soundness oracle can diff real
/// control flow against the analyzer's statically resolved edges.
struct JumpEdge {
  std::uint32_t from_pc = 0;
  std::uint32_t to_pc = 0;
};

struct EngineMessage {
  Address self{};
  Address caller{};
  Address origin{};
  U256 value;
  std::span<const std::uint8_t> data;
  std::span<const std::uint8_t> code;
  /// keccak256(code) when the caller already knows it; null otherwise.
  const Hash256* code_hash = nullptr;
  std::int64_t gas = 10'000'000;
  int depth = 0;
  bool is_static = false;
  /// When non-null, engines that resolve plain JUMP/JUMPI at run time
  /// append every taken dynamic jump of the top frame here (fused and
  /// span-swallowed jumps excluded: their targets were already proven at
  /// translate time). Test/fuzz instrumentation only — leave null on hot
  /// paths.
  std::vector<JumpEdge>* jump_trace = nullptr;
};

/// Per-run statistics consumed by the evaluation harness (Figures 3/4,
/// Table II).
struct ExecStats {
  std::size_t max_stack_pointer = 0;  ///< Fig 3c
  std::size_t peak_memory = 0;        ///< Fig 3a/3b (bytes)
  std::uint64_t ops_executed = 0;
  std::uint64_t mcu_cycles = 0;       ///< Fig 4 (deployment time model)
};

/// Flat execution result (vm.hpp aliases this as ExecResult).
struct EngineResult {
  Status status = Status::Success;
  Bytes output;
  std::int64_t gas_left = 0;
  ExecStats stats;

  [[nodiscard]] bool ok() const { return status == Status::Success; }
};

/// Host-callback table: the full Host vtable flattened into function
/// pointers over an opaque context, so engines depend on this POD-ish
/// table rather than on Host subclasses. The inline methods mirror Host's
/// names and signatures exactly, keeping engine code host-agnostic without
/// rewriting every call site.
struct HostInterface {
  void* context = nullptr;
  U256 (*sload_fn)(void*, const Address&, const U256&) = nullptr;
  bool (*sstore_fn)(void*, const Address&, const U256&, const U256&) =
      nullptr;
  U256 (*balance_fn)(void*, const Address&) = nullptr;
  Bytes (*code_at_fn)(void*, const Address&) = nullptr;
  BlockInfo (*block_info_fn)(void*) = nullptr;
  Hash256 (*block_hash_fn)(void*, std::uint64_t) = nullptr;
  CallResult (*call_fn)(void*, const CallRequest&) = nullptr;
  CreateResult (*create_fn)(void*, const CreateRequest&) = nullptr;
  void (*emit_log_fn)(void*, LogEntry) = nullptr;
  void (*self_destruct_fn)(void*, const Address&, const Address&) = nullptr;
  std::optional<U256> (*sensor_access_fn)(void*, const SensorRequest&) =
      nullptr;

  U256 sload(const Address& addr, const U256& key) const {
    return sload_fn(context, addr, key);
  }
  bool sstore(const Address& addr, const U256& key, const U256& value) const {
    return sstore_fn(context, addr, key, value);
  }
  U256 balance(const Address& addr) const { return balance_fn(context, addr); }
  Bytes code_at(const Address& addr) const { return code_at_fn(context, addr); }
  BlockInfo block_info() const { return block_info_fn(context); }
  Hash256 block_hash(std::uint64_t number) const {
    return block_hash_fn(context, number);
  }
  CallResult call(const CallRequest& req) const { return call_fn(context, req); }
  CreateResult create(const CreateRequest& req) const {
    return create_fn(context, req);
  }
  void emit_log(LogEntry entry) const {
    emit_log_fn(context, std::move(entry));
  }
  void self_destruct(const Address& addr, const Address& beneficiary) const {
    self_destruct_fn(context, addr, beneficiary);
  }
  std::optional<U256> sensor_access(const SensorRequest& req) const {
    return sensor_access_fn(context, req);
  }

  /// Adapts a virtual Host. The table aliases `host`; it must outlive
  /// every call through the returned interface.
  [[nodiscard]] static HostInterface wrap(Host& host);
};

/// Everything Vm::execute resolves before dispatching to an engine. All
/// pointers alias Vm-owned (or cache-owned) state that outlives the call.
struct EngineContext {
  const EngineProfile* profile = nullptr;
  const DispatchTable* dispatch = nullptr;
  /// The cached translation, or null (engine doesn't use translations,
  /// empty code, or code past the cache's size cap — translation-using
  /// engines then fall back to the raw loop, the semantic reference).
  const DecodedProgram* program = nullptr;
};

/// One execution strategy. Engines are stateless and shared: execute()
/// must be safe to call concurrently from any number of threads.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  /// True when the engine executes pre-decoded instruction streams and
  /// Vm::execute should consult the translation cache for it.
  [[nodiscard]] virtual bool uses_translation() const = 0;
  [[nodiscard]] virtual EngineResult execute(const HostInterface& host,
                                             const EngineContext& ctx,
                                             const EngineMessage& msg)
      const = 0;
};

/// The built-in engine names.
inline constexpr std::string_view kRawEngine = "raw";
inline constexpr std::string_view kPredecodedEngine = "predecoded";
inline constexpr std::string_view kElidedEngine = "elided";

/// Process-wide engine catalogue. The three built-ins register at
/// construction; additional engines (a JIT tier) can be added at startup.
/// Thread-safe; returned engine pointers stay valid for the process
/// lifetime (engines are never removed).
class EngineRegistry {
 public:
  static EngineRegistry& instance();

  /// Registers an engine. False (and no registration) when the name is
  /// already taken.
  bool add(std::unique_ptr<ExecutionEngine> engine);
  /// Nullptr when no engine has that name.
  [[nodiscard]] const ExecutionEngine* find(std::string_view name) const;
  /// Like find(), but throws std::invalid_argument naming the available
  /// engines — the error surface for VmConfig::engine.
  [[nodiscard]] const ExecutionEngine& require(std::string_view name) const;
  /// Registration order; the built-ins come first, raw (the semantic
  /// reference) leading.
  [[nodiscard]] std::vector<std::string> names() const;

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

 private:
  EngineRegistry();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ExecutionEngine>> engines_;
};

}  // namespace tinyevm::evm
