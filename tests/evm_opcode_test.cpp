// Per-opcode semantic tests. Each program computes on the stack and returns
// the top word via MSTORE+RETURN so the result is observable in the output.
#include <gtest/gtest.h>

#include "evm/asm.hpp"
#include "evm/vm.hpp"

namespace tinyevm::evm {
namespace {

/// Host that serves storage from a TinyStorage and a fixed sensor bank.
class TestHost : public NullHost {
 public:
  U256 sload(const Address&, const U256& key) override {
    return storage.load(key);
  }
  bool sstore(const Address&, const U256& key, const U256& value) override {
    return storage.store(key, value);
  }
  std::optional<U256> sensor_access(const SensorRequest& req) override {
    last_request = req;
    if (req.device_id == 7) return U256{22};   // temperature sensor
    if (req.device_id == 9 && req.actuate) return U256{1};
    return std::nullopt;
  }
  void emit_log(LogEntry entry) override { logs.push_back(std::move(entry)); }

  TinyStorage storage;
  std::vector<LogEntry> logs;
  std::optional<SensorRequest> last_request;
};

/// Appends MSTORE(0)+RETURN(0,32) and runs the program in the TinyEVM
/// profile, returning the 32-byte output as a U256.
struct RunOutcome {
  ExecResult result;
  U256 top;
};

RunOutcome run_top(Assembler prog, TestHost* host = nullptr) {
  prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  TestHost local;
  TestHost& h = host ? *host : local;
  Vm vm{VmConfig::tiny()};
  Message msg;
  msg.code = prog.take();
  const ExecResult r = vm.execute(h, msg);
  U256 top;
  if (r.output.size() == 32) top = U256::from_bytes(r.output);
  return {r, top};
}

ExecResult run_raw(Bytes code, TestHost& host,
                   VmConfig config = VmConfig::tiny(), Bytes data = {}) {
  Vm vm{config};
  Message msg;
  msg.code = std::move(code);
  msg.data = std::move(data);
  return vm.execute(host, msg);
}

// ---- arithmetic ----

struct BinOpCase {
  const char* name;
  Opcode op;
  std::uint64_t lhs;
  std::uint64_t rhs;
  std::uint64_t expected;
};

// Without a printer gtest dumps the struct's raw bytes, pointer included,
// into the test's listed parameter, and the ctest name changes per build.
void PrintTo(const BinOpCase& c, std::ostream* os) { *os << c.name; }

class BinaryOpTest : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(BinaryOpTest, ComputesExpected) {
  const auto& c = GetParam();
  // Stack order: push rhs first so lhs is on top (EVM pops a then b -> a OP b).
  Assembler prog;
  prog.push(c.rhs).push(c.lhs).op(c.op);
  const auto out = run_top(std::move(prog));
  ASSERT_TRUE(out.result.ok()) << to_string(out.result.status);
  EXPECT_EQ(out.top, U256{c.expected}) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Semantics, BinaryOpTest,
    ::testing::Values(
        BinOpCase{"add", Opcode::ADD, 3, 4, 7},
        BinOpCase{"mul", Opcode::MUL, 6, 7, 42},
        BinOpCase{"sub", Opcode::SUB, 10, 4, 6},
        BinOpCase{"div", Opcode::DIV, 100, 7, 14},
        BinOpCase{"div_by_zero", Opcode::DIV, 5, 0, 0},
        BinOpCase{"mod", Opcode::MOD, 100, 7, 2},
        BinOpCase{"mod_by_zero", Opcode::MOD, 5, 0, 0},
        BinOpCase{"lt_true", Opcode::LT, 3, 4, 1},
        BinOpCase{"lt_false", Opcode::LT, 4, 3, 0},
        BinOpCase{"gt_true", Opcode::GT, 9, 2, 1},
        BinOpCase{"eq_true", Opcode::EQ, 5, 5, 1},
        BinOpCase{"eq_false", Opcode::EQ, 5, 6, 0},
        BinOpCase{"and", Opcode::AND, 0b1100, 0b1010, 0b1000},
        BinOpCase{"or", Opcode::OR, 0b1100, 0b1010, 0b1110},
        BinOpCase{"xor", Opcode::XOR, 0b1100, 0b1010, 0b0110},
        BinOpCase{"shl", Opcode::SHL, 2, 1, 4},      // note: lhs is shift
        BinOpCase{"byte31", Opcode::BYTE, 31, 0xAB, 0xAB}),
    [](const auto& info) { return info.param.name; });

TEST(OpcodeArithmetic, ShlShrUseTopAsShift) {
  // SHL pops shift first, then value.
  Assembler prog;
  prog.push(1).push(4).op(Opcode::SHL);  // value=1, shift=4 -> 16
  const auto out = run_top(std::move(prog));
  EXPECT_EQ(out.top, U256{16});

  Assembler prog2;
  prog2.push(16).push(4).op(Opcode::SHR);  // 16 >> 4 = 1
  EXPECT_EQ(run_top(std::move(prog2)).top, U256{1});
}

TEST(OpcodeArithmetic, SarOnNegative) {
  Assembler prog;
  prog.push_word(U256{8}.negate()).push(2).op(Opcode::SAR);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{2}.negate());
}

TEST(OpcodeArithmetic, SdivSmodSigned) {
  Assembler prog;
  prog.push(2).push_word(U256{7}.negate()).op(Opcode::SDIV);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{3}.negate());

  Assembler prog2;
  prog2.push(3).push_word(U256{7}.negate()).op(Opcode::SMOD);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256{1}.negate());
}

TEST(OpcodeArithmetic, AddmodMulmod) {
  Assembler prog;
  prog.push(7).push(2).push_word(U256::max()).op(Opcode::ADDMOD);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{3});

  Assembler prog2;
  prog2.push(12).push(10).push(10).op(Opcode::MULMOD);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256{4});
}

TEST(OpcodeArithmetic, ExpAndSignextend) {
  Assembler prog;
  prog.push(10).push(2).op(Opcode::EXP);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1024});

  Assembler prog2;
  prog2.push(0xFF).push(0).op(Opcode::SIGNEXTEND);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256::max());
}

// Boundary sweep for the signed/shift opcodes the dispatch rewrite
// touched: INT256_MIN arithmetic, SIGNEXTEND at and past byte 31, and
// shifts at and past 256 — asserted end-to-end through the interpreter.
TEST(OpcodeArithmetic, SdivSmodIntMinBoundaries) {
  // INT256_MIN / -1 wraps back to INT256_MIN (EVM overflow rule).
  Assembler prog;
  prog.push_word(U256::max()).push_word(U256::sign_bit()).op(Opcode::SDIV);
  EXPECT_EQ(run_top(std::move(prog)).top, U256::sign_bit());

  Assembler prog2;
  prog2.push_word(U256::max()).push_word(U256::sign_bit()).op(Opcode::SMOD);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256{});

  // Division by zero yields zero, even at INT256_MIN.
  Assembler prog3;
  prog3.push(0).push_word(U256::sign_bit()).op(Opcode::SDIV);
  EXPECT_EQ(run_top(std::move(prog3)).top, U256{});
}

TEST(OpcodeArithmetic, SignextendIndexBoundaries) {
  const U256 x = U256::sign_bit() | U256{0x80};
  for (std::uint64_t idx : {31ULL, 32ULL, 1000ULL}) {
    Assembler prog;
    prog.push_word(x).push(idx).op(Opcode::SIGNEXTEND);
    EXPECT_EQ(run_top(std::move(prog)).top, x) << "index " << idx;
  }
  // Index that does not fit in 64 bits is also an identity.
  Assembler prog;
  prog.push_word(x).push_word(U256{1} << 200).op(Opcode::SIGNEXTEND);
  EXPECT_EQ(run_top(std::move(prog)).top, x);
  // Index 30 replaces the top byte with the sign of bit 247.
  Assembler prog2;
  prog2.push_word((U256{1} << 255) | U256{42})
      .push(30)
      .op(Opcode::SIGNEXTEND);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256{42});
}

TEST(OpcodeArithmetic, ShiftsAtAndPast256) {
  for (std::uint64_t sh : {256ULL, 257ULL, 100000ULL}) {
    Assembler shl;
    shl.push_word(U256::max()).push(sh).op(Opcode::SHL);
    EXPECT_EQ(run_top(std::move(shl)).top, U256{}) << "SHL " << sh;

    Assembler shr;
    shr.push_word(U256::max()).push(sh).op(Opcode::SHR);
    EXPECT_EQ(run_top(std::move(shr)).top, U256{}) << "SHR " << sh;

    Assembler sar_neg;
    sar_neg.push_word(U256::sign_bit()).push(sh).op(Opcode::SAR);
    EXPECT_EQ(run_top(std::move(sar_neg)).top, U256::max()) << "SAR " << sh;

    Assembler sar_pos;
    sar_pos.push(5).push(sh).op(Opcode::SAR);
    EXPECT_EQ(run_top(std::move(sar_pos)).top, U256{}) << "SAR+ " << sh;
  }
  // A shift count that does not fit in 64 bits saturates identically.
  Assembler prog;
  prog.push_word(U256::max()).push_word(U256{1} << 64).op(Opcode::SHL);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{});

  Assembler prog2;
  prog2.push_word(U256::sign_bit()).push_word(U256::max()).op(Opcode::SAR);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256::max());

  // Shift of 255 is the last in-range count.
  Assembler prog3;
  prog3.push(1).push(255).op(Opcode::SHL);
  EXPECT_EQ(run_top(std::move(prog3)).top, U256::sign_bit());
}

TEST(OpcodeArithmetic, FusedDupPairsMatchUnfusedSemantics) {
  // DUP1+MUL / DUP1+ADD are fused by the threaded dispatcher; the stack
  // result, the transient high-water mark, and the op count must be
  // exactly those of the unfused sequence.
  Assembler prog;
  prog.push(7);
  prog.dup(1).op(Opcode::MUL);  // 49
  prog.dup(1).op(Opcode::ADD);  // 98
  const auto out = run_top(std::move(prog));
  EXPECT_EQ(out.top, U256{98});
  // PUSH + 2*(DUP+op) + MSTORE path ops: PUSH1 7, DUP1, MUL, DUP1, ADD,
  // PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN = 10 ops.
  EXPECT_EQ(out.result.stats.ops_executed, 10u);
  // The DUP1 transiently reaches depth 2 even though the pair nets to 1.
  EXPECT_EQ(out.result.stats.max_stack_pointer, 2u);
}

TEST(OpcodeArithmetic, IszeroNot) {
  Assembler prog;
  prog.push(0).op(Opcode::ISZERO);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1});

  Assembler prog2;
  prog2.push(0).op(Opcode::NOT);
  EXPECT_EQ(run_top(std::move(prog2)).top, U256::max());
}

TEST(OpcodeArithmetic, SltSgtSignedComparison) {
  Assembler prog;
  prog.push(0).push_word(U256{1}.negate()).op(Opcode::SLT);  // -1 < 0
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1});

  Assembler prog2;
  prog2.push_word(U256{1}.negate()).push(0).op(Opcode::SGT);  // 0 > -1
  EXPECT_EQ(run_top(std::move(prog2)).top, U256{1});
}

// ---- SHA3 ----

TEST(OpcodeSha3, HashesMemoryRange) {
  // keccak256 of 32 zero bytes.
  Assembler prog;
  prog.push(32).push(0).op(Opcode::SHA3);
  const auto out = run_top(std::move(prog));
  ASSERT_TRUE(out.result.ok());
  const Bytes zeros(32, 0);
  EXPECT_EQ(out.top, U256::from_bytes(keccak256(zeros)));
}

TEST(OpcodeSha3, EmptyRangeHashesEmptyString) {
  Assembler prog;
  prog.push(0).push(0).op(Opcode::SHA3);
  EXPECT_EQ(run_top(std::move(prog)).top,
            U256::from_bytes(keccak256(std::string_view{})));
}

// ---- stack family ----

TEST(OpcodeStack, PushAllWidths) {
  for (unsigned n = 1; n <= 32; ++n) {
    Bytes code;
    code.push_back(static_cast<std::uint8_t>(0x60 + n - 1));
    for (unsigned i = 0; i < n; ++i) code.push_back(0x11);
    // Return the value.
    Assembler tail;
    tail.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
    const Bytes t = tail.take();
    code.insert(code.end(), t.begin(), t.end());
    TestHost host;
    const auto r = run_raw(code, host);
    ASSERT_TRUE(r.ok()) << "PUSH" << n;
    U256 expected;
    for (unsigned i = 0; i < n; ++i) expected = (expected << 8) | U256{0x11};
    EXPECT_EQ(U256::from_bytes(r.output), expected) << "PUSH" << n;
  }
}

TEST(OpcodeStack, PushPastEndZeroPads) {
  // PUSH4 with only 2 immediate bytes available: missing bytes read as 0.
  TestHost host;
  Bytes code = {0x63, 0xAA, 0xBB};  // PUSH4 AA BB <eof>
  const auto r = run_raw(code, host);
  EXPECT_TRUE(r.ok());  // implicit stop after push
}

TEST(OpcodeStack, DupDepths) {
  // PUSH 1..4, DUP4 duplicates the bottom (value 1).
  Assembler prog;
  prog.push(1).push(2).push(3).push(4).dup(4);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1});
}

TEST(OpcodeStack, SwapDepths) {
  // PUSH 1..3, SWAP2 exchanges top (3) with third (1) -> top becomes 1.
  Assembler prog;
  prog.push(1).push(2).push(3).swap(2);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1});
}

TEST(OpcodeStack, PopRemovesTop) {
  Assembler prog;
  prog.push(1).push(99).op(Opcode::POP);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1});
}

TEST(OpcodeStack, DupUnderflowFails) {
  TestHost host;
  Assembler prog;
  prog.push(1).dup(2);
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::StackUnderflow);
}

TEST(OpcodeStack, SwapUnderflowFails) {
  TestHost host;
  Assembler prog;
  prog.push(1).swap(1);
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::StackUnderflow);
}

// ---- memory ----

TEST(OpcodeMemory, MstoreMloadRoundTrip) {
  Assembler prog;
  prog.push_word(*U256::from_hex("0xdeadbeef"))
      .push(64)
      .op(Opcode::MSTORE)
      .push(64)
      .op(Opcode::MLOAD);
  EXPECT_EQ(run_top(std::move(prog)).top, *U256::from_hex("0xdeadbeef"));
}

TEST(OpcodeMemory, Mstore8WritesSingleByte) {
  Assembler prog;
  prog.push(0xABCD)  // only low byte 0xCD lands
      .push(0)
      .op(Opcode::MSTORE8)
      .push(0)
      .op(Opcode::MLOAD);
  // 0xCD at offset 0 -> most significant byte of the loaded word.
  EXPECT_EQ(run_top(std::move(prog)).top, U256{0xCD} << 248);
}

TEST(OpcodeMemory, MsizeTracksWordGranularity) {
  Assembler prog;
  prog.push(1).push(33).op(Opcode::MSTORE8).op(Opcode::MSIZE);
  // Writing one byte at offset 33 expands to 64 bytes (2 words).
  EXPECT_EQ(run_top(std::move(prog)).top, U256{64});
}

TEST(OpcodeMemory, UnwrittenMemoryReadsZero) {
  Assembler prog;
  prog.push(128).op(Opcode::MLOAD);
  EXPECT_EQ(run_top(std::move(prog)).top, U256{});
}

TEST(OpcodeMemory, TinyProfileCapsMemoryAt8K) {
  TestHost host;
  Assembler prog;
  prog.push(1).push(8192).op(Opcode::MSTORE);  // would need 8224 bytes
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::OutOfMemory);
}

TEST(OpcodeMemory, TinyProfileAllowsExactly8K) {
  TestHost host;
  Assembler prog;
  prog.push(1).push(8160).op(Opcode::MSTORE);  // ends exactly at 8192
  const auto r = run_raw(prog.take(), host);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.stats.peak_memory, 8192u);
}

// ---- storage ----

TEST(OpcodeStorage, SstoreSloadRoundTrip) {
  TestHost host;
  Assembler prog;
  prog.push(1234).push(5).op(Opcode::SSTORE).push(5).op(Opcode::SLOAD);
  const auto out = run_top(std::move(prog), &host);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.top, U256{1234});
  EXPECT_EQ(host.storage.load(U256{5}), U256{1234});
}

TEST(OpcodeStorage, TinyStorageTruncatesKeysTo8Bits) {
  TestHost host;
  Assembler prog;
  // Key 0x105 truncates to 0x05.
  prog.push(42).push(0x105).op(Opcode::SSTORE).push(5).op(Opcode::SLOAD);
  const auto out = run_top(std::move(prog), &host);
  EXPECT_EQ(out.top, U256{42});
}

TEST(OpcodeStorage, ExhaustionAborts) {
  TestHost host;
  Assembler prog;
  // 33 distinct slots exceed the 1 KB / 32-slot budget.
  for (unsigned k = 0; k < 33; ++k) {
    prog.push(k + 1).push(k).op(Opcode::SSTORE);
  }
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::StorageExhausted);
  EXPECT_EQ(host.storage.used_slots(), 32u);
}

TEST(OpcodeStorage, DeletingSlotFreesBudget) {
  TinyStorage st;
  for (unsigned k = 0; k < 32; ++k) {
    ASSERT_TRUE(st.store(U256{k}, U256{1}));
  }
  EXPECT_FALSE(st.store(U256{200}, U256{1}));
  ASSERT_TRUE(st.store(U256{0}, U256{}));  // delete slot 0
  EXPECT_TRUE(st.store(U256{200}, U256{1}));
}

// ---- control flow ----

TEST(OpcodeJump, ForwardJumpSkipsCode) {
  Assembler prog;
  prog.push(1);
  // JUMP over a PUSH 99 / overwrite sequence.
  prog.push_label(10).op(Opcode::JUMP);
  prog.op(Opcode::POP).push(99);  // skipped (pc 6..9)
  while (prog.size() < 10) prog.op(Opcode::STOP);
  prog.label();
  EXPECT_EQ(run_top(std::move(prog)).top, U256{1});
}

TEST(OpcodeJump, JumpiTakenAndNotTaken) {
  // if (cond) result = 7 else result = 3
  auto build = [](std::uint64_t cond) {
    Assembler prog;
    prog.push(cond);
    prog.push_label(12).op(Opcode::JUMPI);  // consumes cond
    prog.push(3);
    prog.push_label(15).op(Opcode::JUMP);
    while (prog.size() < 12) prog.op(Opcode::STOP);
    prog.label();  // pc 12
    prog.push(7);  // pc 13-14
    prog.label();  // pc 15
    return prog;
  };
  EXPECT_EQ(run_top(build(1)).top, U256{7});
  EXPECT_EQ(run_top(build(0)).top, U256{3});
}

TEST(OpcodeJump, JumpIntoPushImmediateFails) {
  TestHost host;
  // PUSH2 0x5b5b looks like JUMPDESTs inside the immediate.
  Bytes code = {0x61, 0x5b, 0x5b,   // PUSH2 0x5b5b
                0x60, 0x01,         // PUSH1 1 (target inside immediate)
                0x56};              // JUMP
  // Fix: jump to pc=1 which is inside the PUSH2 immediate.
  code = {0x60, 0x01, 0x56, 0x61, 0x5b, 0x5b};
  const auto r = run_raw(code, host);
  EXPECT_EQ(r.status, Status::InvalidJump);
}

TEST(OpcodeJump, JumpToNonJumpdestFails) {
  TestHost host;
  Assembler prog;
  prog.push(3).op(Opcode::JUMP).op(Opcode::STOP);
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::InvalidJump);
}

TEST(OpcodeJump, BackwardLoopTerminates) {
  // for (i = 5; i != 0; --i) {}; return 0xAA
  Assembler prog;
  prog.push(5);
  const std::uint64_t loop = prog.label();
  prog.push(1).swap(1).op(Opcode::SUB);  // i = i - 1
  prog.dup(1);
  prog.push_label(loop).op(Opcode::JUMPI);
  prog.op(Opcode::POP).push(0xAA);
  const auto out = run_top(std::move(prog));
  ASSERT_TRUE(out.result.ok()) << to_string(out.result.status);
  EXPECT_EQ(out.top, U256{0xAA});
}

TEST(OpcodePc, ReportsCurrentCounter) {
  Assembler prog;
  prog.push(0).op(Opcode::POP).op(Opcode::PC);  // PC is at offset 3
  EXPECT_EQ(run_top(std::move(prog)).top, U256{3});
}

// ---- environment ----

TEST(OpcodeEnv, CallerAddressCallvalue) {
  TestHost host;
  Vm vm{VmConfig::tiny()};
  Message msg;
  msg.self[19] = 0x11;
  msg.caller[19] = 0x22;
  msg.origin[19] = 0x33;
  msg.value = U256{555};
  Assembler prog;
  prog.op(Opcode::CALLER)
      .op(Opcode::ADDRESS)
      .op(Opcode::ORIGIN)
      .op(Opcode::CALLVALUE);
  // Sum them for a single observable value.
  prog.op(Opcode::ADD).op(Opcode::ADD).op(Opcode::ADD);
  prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  msg.code = prog.take();
  const auto r = vm.execute(host, msg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(U256::from_bytes(r.output), U256{0x11 + 0x22 + 0x33 + 555});
}

TEST(OpcodeEnv, CalldataOps) {
  TestHost host;
  Bytes data = {0x01, 0x02, 0x03, 0x04};
  Assembler prog;
  prog.op(Opcode::CALLDATASIZE);
  prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  const auto r = run_raw(prog.take(), host, VmConfig::tiny(), data);
  EXPECT_EQ(U256::from_bytes(r.output), U256{4});
}

TEST(OpcodeEnv, CalldataloadZeroPadsPastEnd) {
  TestHost host;
  Bytes data = {0xAA, 0xBB};
  Assembler prog;
  prog.push(0).op(Opcode::CALLDATALOAD);
  prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  const auto r = run_raw(prog.take(), host, VmConfig::tiny(), data);
  // 0xAABB followed by 30 zero bytes.
  EXPECT_EQ(U256::from_bytes(r.output), (U256{0xAA} << 248) | (U256{0xBB} << 240));
}

TEST(OpcodeEnv, CalldataloadHugeOffsetReadsZero) {
  // Regression: `offset + i` wrapped past 2^64 and aliased the *start* of
  // calldata, so an offset like 2^64-1 leaked data bytes into a word the
  // EVM defines as all zeros.
  TestHost host;
  Bytes data = {0xAA, 0xBB, 0xCC, 0xDD};
  for (const std::uint64_t offset : {~0ULL, ~0ULL - 16, 1ULL << 63}) {
    Assembler prog;
    prog.push_word(U256{offset}).op(Opcode::CALLDATALOAD);
    prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
    const auto r = run_raw(prog.take(), host, VmConfig::tiny(), data);
    EXPECT_EQ(U256::from_bytes(r.output), U256{}) << "offset " << offset;
  }
  // An offset beyond 64 bits also reads zero.
  Assembler prog;
  prog.push_word(U256{1} << 64).op(Opcode::CALLDATALOAD);
  prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  const auto r = run_raw(prog.take(), host, VmConfig::tiny(), data);
  EXPECT_EQ(U256::from_bytes(r.output), U256{});
  // A partially-in-range offset still reads the tail bytes.
  Assembler prog2;
  prog2.push(2).op(Opcode::CALLDATALOAD);
  prog2.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  const auto r2 = run_raw(prog2.take(), host, VmConfig::tiny(), data);
  EXPECT_EQ(U256::from_bytes(r2.output),
            (U256{0xCC} << 248) | (U256{0xDD} << 240));
}

TEST(OpcodeEnv, CalldatacopyIntoMemory) {
  TestHost host;
  Bytes data = {0x11, 0x22, 0x33};
  Assembler prog;
  prog.push(32).push(0).push(0).op(Opcode::CALLDATACOPY);  // len=32 src=0 dst=0
  prog.push(32).push(0).op(Opcode::RETURN);
  const auto r = run_raw(prog.take(), host, VmConfig::tiny(), data);
  ASSERT_EQ(r.output.size(), 32u);
  EXPECT_EQ(r.output[0], 0x11);
  EXPECT_EQ(r.output[2], 0x33);
  EXPECT_EQ(r.output[3], 0x00);  // zero-fill past calldata end
}

TEST(OpcodeEnv, CodesizeAndCodecopy) {
  TestHost host;
  Assembler prog;
  prog.op(Opcode::CODESIZE);
  prog.push(0).op(Opcode::MSTORE).push(32).push(0).op(Opcode::RETURN);
  const Bytes code = prog.take();
  const auto r = run_raw(code, host);
  EXPECT_EQ(U256::from_bytes(r.output), U256{code.size()});
}

// ---- logs ----

TEST(OpcodeLog, EmitsTopicsAndData) {
  TestHost host;
  Assembler prog;
  prog.push(0x42).push(0).op(Opcode::MSTORE);            // mem[0..32] = 0x42
  prog.push(777).push(888).push(32).push(0).log(2);      // LOG2
  const auto r = run_raw(prog.take(), host);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(host.logs.size(), 1u);
  EXPECT_EQ(host.logs[0].topics.size(), 2u);
  EXPECT_EQ(host.logs[0].topics[0], U256{888});
  EXPECT_EQ(host.logs[0].topics[1], U256{777});
  EXPECT_EQ(host.logs[0].data.size(), 32u);
  EXPECT_EQ(host.logs[0].data[31], 0x42);
}

// ---- IoT opcode (the paper's extension) ----

TEST(OpcodeSensor, ReadPushesSensorValue) {
  TestHost host;
  Assembler prog;
  prog.sensor(7, false, U256{0});
  const auto out = run_top(std::move(prog), &host);
  ASSERT_TRUE(out.result.ok()) << to_string(out.result.status);
  EXPECT_EQ(out.top, U256{22});
  ASSERT_TRUE(host.last_request.has_value());
  EXPECT_EQ(host.last_request->device_id, 7u);
  EXPECT_FALSE(host.last_request->actuate);
}

TEST(OpcodeSensor, ActuationPassesParameter) {
  TestHost host;
  Assembler prog;
  prog.sensor(9, true, U256{180});
  const auto out = run_top(std::move(prog), &host);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.top, U256{1});
  EXPECT_TRUE(host.last_request->actuate);
  EXPECT_EQ(host.last_request->parameter, U256{180});
}

TEST(OpcodeSensor, MissingDeviceAborts) {
  TestHost host;
  Assembler prog;
  prog.sensor(1234, false, U256{0});
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::SensorFailure);
}

TEST(OpcodeSensor, SensorReadingFlowsIntoStorage) {
  // The paper's Listing 2 pattern: read sensor, sstore the result.
  TestHost host;
  Assembler prog;
  prog.sensor(7, false, U256{0});
  prog.push(0x0c).op(Opcode::SSTORE);  // sstore(0x0c, reading)
  const auto r = run_raw(prog.take(), host);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(host.storage.load(U256{0x0c}), U256{22});
}

TEST(OpcodeSensor, RejectedInEthereumProfile) {
  TestHost host;
  Assembler prog;
  prog.sensor(7, false, U256{0});
  const auto r = run_raw(prog.take(), host, VmConfig::ethereum());
  EXPECT_EQ(r.status, Status::InvalidOpcode);
}

// ---- return / revert / invalid ----

TEST(OpcodeReturn, OutputsMemoryRange) {
  TestHost host;
  Assembler prog;
  prog.push(0x1122).push(0).op(Opcode::MSTORE);
  prog.push(2).push(30).op(Opcode::RETURN);  // last 2 bytes of the word
  const auto r = run_raw(prog.take(), host);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, (Bytes{0x11, 0x22}));
}

TEST(OpcodeRevert, SignalsRevertWithPayload) {
  TestHost host;
  Assembler prog;
  prog.push(0xEE).push(0).op(Opcode::MSTORE);
  prog.push(32).push(0).op(Opcode::REVERT);
  const auto r = run_raw(prog.take(), host);
  EXPECT_EQ(r.status, Status::Revert);
  ASSERT_EQ(r.output.size(), 32u);
  EXPECT_EQ(r.output[31], 0xEE);
}

TEST(OpcodeInvalid, AbortsExecution) {
  TestHost host;
  const auto r = run_raw(Bytes{0xfe}, host);
  EXPECT_EQ(r.status, Status::InvalidOpcode);
}

TEST(OpcodeUndefined, UnknownByteAborts) {
  TestHost host;
  const auto r = run_raw(Bytes{0x2f}, host);
  EXPECT_EQ(r.status, Status::InvalidOpcode);
}

TEST(OpcodeStop, EmptyOutput) {
  TestHost host;
  Assembler prog;
  prog.push(1).op(Opcode::STOP);
  const auto r = run_raw(prog.take(), host);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.output.empty());
}

TEST(ImplicitStop, CodeEndWithoutStop) {
  TestHost host;
  Assembler prog;
  prog.push(1).push(2).op(Opcode::ADD);
  const auto r = run_raw(prog.take(), host);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace tinyevm::evm
