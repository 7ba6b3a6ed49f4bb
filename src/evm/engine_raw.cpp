// ---------------------------------------------------------------------------
// Token-threaded interpreter loop (the RawThreadedEngine body)
// ---------------------------------------------------------------------------
//
// Per-opcode path: one table load, one (predictable) validity branch, the
// folded gas/cycle/watchdog accounting, then a direct jump to the handler.
// This loop decodes from raw bytecode every run; it is the fallback for
// translate misses and oversized code, and the semantic reference the
// pre-decoded loop in engine_decoded.cpp must match bit-for-bit (the
// golden/differential suite in tests/evm_dispatch_test.cpp holds every
// registered engine to identical results).
//
// Binary operators pop ONE operand and rewrite the second in place via
// Stack::top() and the U256 *_assign ops, eliminating the two
// optional<U256> round-trips and the result push of a pop/pop/push scheme.
//
// This TU builds with -fno-crossjumping -fno-gcse under GCC so the
// replicated dispatch tails stay distinct (see TINYEVM_NEXT below).

#include <limits>

#include "evm/frame.hpp"

namespace tinyevm::evm {

// Cache-line aligned so the dispatch tails keep their offsets mod 64
// wherever the linker puts this file: at the default 16-byte alignment,
// changes to unrelated code moved corpus_deploy by 3-6%.
[[gnu::aligned(64)]] void Frame::run_threaded() {
  const DispatchEntry* const entries = table_.entries.data();
  const std::uint8_t* const code = msg_.code.data();
  const std::uint64_t code_size = msg_.code.size();
  const bool metered = profile_.metering;
  const std::uint64_t ops_cap =
      profile_.max_ops == 0 ? std::numeric_limits<std::uint64_t>::max()
                            : profile_.max_ops;
  std::uint64_t pc = 0;
  const DispatchEntry* e = nullptr;
  // Register-cached copies of the per-op hot state: the accounting
  // counters the dispatch prologue touches every opcode, the operand
  // stack (base/sp/high-water), and — crucially — the top-of-stack
  // *value* itself. With `tos` in registers a DUP1/binary-op pair runs
  // one store plus one load instead of chaining every operand through
  // memory. Invariant: when sp > 0 the logical top lives in `tos` and
  // base()[sp-1] is stale; TINYEVM_SYNCED restores the flat-memory view
  // around any helper call, and run_exit publishes the final state.
  std::int64_t gas = gas_;
  std::uint64_t cyc = cycles_;
  std::uint64_t ops = ops_;
  U256* const sb = stack_.base();  // sb[-1] is a scratch word (see Stack)
  const std::size_t slimit = stack_.limit();
  std::size_t sp = stack_.size();
  std::size_t smax = stack_.max_pointer();
  U256 tos = sp != 0 ? sb[sp - 1] : U256{};

#define TINYEVM_SYNCED(expr)        \
  do {                              \
    gas_ = gas;                     \
    cycles_ = cyc;                  \
    sb[sp - 1] = tos;               \
    stack_.set_state(sp, smax);     \
    expr;                           \
    gas = gas_;                     \
    cyc = cycles_;                  \
    sp = stack_.size();             \
    smax = stack_.max_pointer();    \
    tos = sb[sp - 1];               \
  } while (0)

// Stack push against the cached registers; overflow fails the frame (the
// following dispatch notices done_), matching Frame::push.
#define TINYEVM_PUSH(v)             \
  do {                              \
    if (sp >= slimit) {             \
      fail(Status::StackOverflow);  \
    } else {                        \
      sb[sp - 1] = tos;             \
      tos = (v);                    \
      ++sp;                         \
      if (sp > smax) smax = sp;     \
    }                               \
  } while (0)

// The prologue every opcode runs: bounds/halt check, table load, validity
// short-circuit, folded static gas, cycle model, watchdog, pc advance.
#define TINYEVM_PROLOGUE()                                                  \
  if (done_ || pc >= code_size) goto run_exit;                              \
  e = &entries[code[pc]];                                                   \
  if (static_cast<std::uint8_t>(e->handler) <=                              \
      static_cast<std::uint8_t>(Handler::Forbidden)) {                      \
    fail(e->handler == Handler::Undefined ? Status::InvalidOpcode           \
                                          : Status::ForbiddenOpcode);       \
    goto run_exit;                                                          \
  }                                                                         \
  if (metered) {                                                            \
    gas -= e->gas;                                                          \
    if (gas < 0) {                                                          \
      fail(Status::OutOfGas);                                               \
      goto run_exit;                                                        \
    }                                                                       \
  }                                                                         \
  cyc += e->cycles;                                                         \
  if (++ops > ops_cap) {                                                    \
    fail(Status::WatchdogExpired);                                          \
    goto run_exit;                                                          \
  }                                                                         \
  ++pc;

#if TINYEVM_COMPUTED_GOTO
  static const void* const kJump[] = {
#define TINYEVM_H_LABEL(name) &&h_##name,
      TINYEVM_HANDLER_LIST(TINYEVM_H_LABEL)
#undef TINYEVM_H_LABEL
  };
#define TINYEVM_OP(name) h_##name:
// Token threading proper: every handler tail replicates the full dispatch
// sequence instead of jumping back to a single shared dispatch point, so
// the indirect branch predictor sees one site per handler and can learn
// the bytecode's opcode-pair patterns. (This TU builds with
// -fno-crossjumping -fno-gcse under GCC so the copies stay distinct.)
#define TINYEVM_NEXT                                           \
  do {                                                         \
    TINYEVM_PROLOGUE()                                         \
    goto *kJump[static_cast<std::uint8_t>(e->handler)];        \
  } while (0)
  TINYEVM_NEXT;
#else
#define TINYEVM_OP(name) case Handler::name:
#define TINYEVM_NEXT break
  for (;;) {
    TINYEVM_PROLOGUE()
    switch (e->handler) {
#endif

  // Unreachable in practice — the prologue short-circuits these two — but
  // kept as real handlers so the jump table is total.
  TINYEVM_OP(Undefined) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;
  TINYEVM_OP(Forbidden) { fail(Status::ForbiddenOpcode); }
  TINYEVM_NEXT;

  TINYEVM_OP(Stop) { done_ = true; }
  TINYEVM_NEXT;

// Binary operators: the first operand is `tos` (in registers), `s` is the
// second operand's memory slot. The body leaves the result in `tos`; the
// pop is just --sp, so the pair costs one load instead of the legacy
// pop/pop/push round-trips.
#define TINYEVM_BINARY(body)                    \
  {                                             \
    if (sp < 2) {                               \
      fail(Status::StackUnderflow);             \
      TINYEVM_NEXT;                             \
    }                                           \
    const U256& s = sb[sp - 2];                 \
    body;                                       \
    --sp;                                       \
  }                                             \
  TINYEVM_NEXT

  TINYEVM_OP(Add) TINYEVM_BINARY(tos.add_assign(s));
  TINYEVM_OP(Mul) TINYEVM_BINARY(tos.mul_assign(s));
  TINYEVM_OP(Sub) TINYEVM_BINARY(tos.sub_assign(s));  // tos = top - second
  TINYEVM_OP(Div) TINYEVM_BINARY(tos = tos / s);
  TINYEVM_OP(Sdiv) TINYEVM_BINARY(tos = U256::sdiv(tos, s));
  TINYEVM_OP(Mod) TINYEVM_BINARY(tos = tos % s);
  TINYEVM_OP(Smod) TINYEVM_BINARY(tos = U256::smod(tos, s));
  TINYEVM_OP(Lt) TINYEVM_BINARY(tos = U256{tos < s ? 1ULL : 0ULL});
  TINYEVM_OP(Gt) TINYEVM_BINARY(tos = U256{tos > s ? 1ULL : 0ULL});
  TINYEVM_OP(Slt) TINYEVM_BINARY(tos = U256{U256::slt(tos, s) ? 1ULL : 0ULL});
  TINYEVM_OP(Sgt) TINYEVM_BINARY(tos = U256{U256::sgt(tos, s) ? 1ULL : 0ULL});
  TINYEVM_OP(Eq) TINYEVM_BINARY(tos = U256{tos == s ? 1ULL : 0ULL});
  TINYEVM_OP(And) TINYEVM_BINARY(tos.and_assign(s));
  TINYEVM_OP(Or) TINYEVM_BINARY(tos.or_assign(s));
  TINYEVM_OP(Xor) TINYEVM_BINARY(tos.xor_assign(s));
  TINYEVM_OP(Byte) TINYEVM_BINARY(tos = U256::byte(tos, s));
  TINYEVM_OP(Shl) TINYEVM_BINARY({
    const bool in_range = tos.fits_u64() && tos.as_u64() < 256;
    const unsigned n = static_cast<unsigned>(tos.as_u64());
    if (in_range) {
      tos = s;
      tos.shl_assign(n);
    } else {
      tos = U256{};
    }
  });
  TINYEVM_OP(Shr) TINYEVM_BINARY({
    const bool in_range = tos.fits_u64() && tos.as_u64() < 256;
    const unsigned n = static_cast<unsigned>(tos.as_u64());
    if (in_range) {
      tos = s;
      tos.shr_assign(n);
    } else {
      tos = U256{};
    }
  });
  TINYEVM_OP(Sar) TINYEVM_BINARY(tos = U256::sar(tos, s));
  TINYEVM_OP(SignExtend) TINYEVM_BINARY(tos = U256::signextend(tos, s));

#undef TINYEVM_BINARY

  TINYEVM_OP(AddMod) {
    if (sp < 3) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = U256::addmod(tos, sb[sp - 2], sb[sp - 3]);
    sp -= 2;
  }
  TINYEVM_NEXT;
  TINYEVM_OP(MulMod) {
    if (sp < 3) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = U256::mulmod(tos, sb[sp - 2], sb[sp - 3]);
    sp -= 2;
  }
  TINYEVM_NEXT;

  TINYEVM_OP(Exp) { TINYEVM_SYNCED(op_exp()); }
  TINYEVM_NEXT;

  TINYEVM_OP(IsZero) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = U256{tos.is_zero() ? 1ULL : 0ULL};
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Not) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos.not_assign();
  }
  TINYEVM_NEXT;

  TINYEVM_OP(Sensor) { TINYEVM_SYNCED(op_sensor()); }
  TINYEVM_NEXT;
  TINYEVM_OP(Sha3) { TINYEVM_SYNCED(op_sha3()); }
  TINYEVM_NEXT;

  // --- environment ---
  TINYEVM_OP(Address) { TINYEVM_PUSH(U256::from_bytes(msg_.self)); }
  TINYEVM_NEXT;
  TINYEVM_OP(Origin) { TINYEVM_PUSH(U256::from_bytes(msg_.origin)); }
  TINYEVM_NEXT;
  TINYEVM_OP(Caller) { TINYEVM_PUSH(U256::from_bytes(msg_.caller)); }
  TINYEVM_NEXT;
  TINYEVM_OP(CallValue) { TINYEVM_PUSH(msg_.value); }
  TINYEVM_NEXT;
  TINYEVM_OP(Balance) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = host_.balance(to_address(tos));
  }
  TINYEVM_NEXT;
  TINYEVM_OP(CallDataLoad) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = calldata_word(tos);
  }
  TINYEVM_NEXT;
  TINYEVM_OP(CallDataSize) { TINYEVM_PUSH(U256{msg_.data.size()}); }
  TINYEVM_NEXT;
  TINYEVM_OP(CodeSize) { TINYEVM_PUSH(U256{msg_.code.size()}); }
  TINYEVM_NEXT;
  TINYEVM_OP(ReturnDataSize) { TINYEVM_PUSH(U256{return_data_.size()}); }
  TINYEVM_NEXT;
  TINYEVM_OP(CallDataCopy) { TINYEVM_SYNCED(op_copy(msg_.data, false)); }
  TINYEVM_NEXT;
  TINYEVM_OP(CodeCopy) { TINYEVM_SYNCED(op_copy(msg_.code, false)); }
  TINYEVM_NEXT;
  TINYEVM_OP(ReturnDataCopy) { TINYEVM_SYNCED(op_copy(return_data_, false)); }
  TINYEVM_NEXT;
  TINYEVM_OP(GasPrice) { TINYEVM_PUSH(U256{1}); }  // flat simulated price
  TINYEVM_NEXT;
  TINYEVM_OP(ExtCodeSize) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = U256{host_.code_at(to_address(tos)).size()};
  }
  TINYEVM_NEXT;
  TINYEVM_OP(ExtCodeCopy) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    const Address addr = to_address(tos);
    --sp;
    tos = sb[sp - 1];
    TINYEVM_SYNCED(op_copy(host_.code_at(addr), true));
  }
  TINYEVM_NEXT;

  // --- block data ---
  TINYEVM_OP(BlockHash) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = tos.fits_u64() ? U256::from_bytes(host_.block_hash(tos.as_u64()))
                         : U256{};
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Coinbase) {
    TINYEVM_PUSH(U256::from_bytes(host_.block_info().coinbase));
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Timestamp) { TINYEVM_PUSH(U256{host_.block_info().timestamp}); }
  TINYEVM_NEXT;
  TINYEVM_OP(Number) { TINYEVM_PUSH(U256{host_.block_info().number}); }
  TINYEVM_NEXT;
  TINYEVM_OP(Difficulty) { TINYEVM_PUSH(host_.block_info().difficulty); }
  TINYEVM_NEXT;
  TINYEVM_OP(GasLimit) { TINYEVM_PUSH(U256{host_.block_info().gas_limit}); }
  TINYEVM_NEXT;

  // --- stack / memory / storage / control flow ---
  TINYEVM_OP(Pop) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    --sp;
    tos = sb[sp - 1];
  }
  TINYEVM_NEXT;
  TINYEVM_OP(MLoad) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    if (!tos.fits_u64()) {
      fail(metered ? Status::OutOfGas : Status::OutOfMemory);
      TINYEVM_NEXT;
    }
    const std::uint64_t off = tos.as_u64();
    bool ok = false;
    TINYEVM_SYNCED(ok = grow(off, 32));
    if (!ok) TINYEVM_NEXT;
    tos = memory_.load_word(off);
  }
  TINYEVM_NEXT;
  TINYEVM_OP(MStore) {
    if (sp < 2) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    if (!tos.fits_u64()) {
      fail(metered ? Status::OutOfGas : Status::OutOfMemory);
      TINYEVM_NEXT;
    }
    const std::uint64_t off = tos.as_u64();
    bool ok = false;
    TINYEVM_SYNCED(ok = grow(off, 32));
    if (!ok) TINYEVM_NEXT;
    memory_.store_word(off, sb[sp - 2]);
    sp -= 2;
    tos = sb[sp - 1];
  }
  TINYEVM_NEXT;
  TINYEVM_OP(MStore8) {
    if (sp < 2) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    if (!tos.fits_u64()) {
      fail(metered ? Status::OutOfGas : Status::OutOfMemory);
      TINYEVM_NEXT;
    }
    const std::uint64_t off = tos.as_u64();
    bool ok = false;
    TINYEVM_SYNCED(ok = grow(off, 1));
    if (!ok) TINYEVM_NEXT;
    memory_.store_byte(off, static_cast<std::uint8_t>(sb[sp - 2].limb(0) &
                                                      0xFF));
    sp -= 2;
    tos = sb[sp - 1];
  }
  TINYEVM_NEXT;
  TINYEVM_OP(SLoad) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    tos = host_.sload(msg_.self, tos);
  }
  TINYEVM_NEXT;
  TINYEVM_OP(SStore) { TINYEVM_SYNCED(op_sstore()); }
  TINYEVM_NEXT;
  TINYEVM_OP(Jump) {
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    if (!tos.fits_u64() || !analysis_->valid_jumpdest(tos.as_u64())) {
      fail(Status::InvalidJump);
      TINYEVM_NEXT;
    }
    pc = tos.as_u64();
    --sp;
    tos = sb[sp - 1];
  }
  TINYEVM_NEXT;
  TINYEVM_OP(JumpI) {
    if (sp < 2) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    const bool taken = !sb[sp - 2].is_zero();
    const bool dest_ok = tos.fits_u64();
    const std::uint64_t dest = tos.as_u64();
    sp -= 2;
    tos = sb[sp - 1];
    if (taken) {
      if (!dest_ok || !analysis_->valid_jumpdest(dest)) {
        fail(Status::InvalidJump);
        TINYEVM_NEXT;
      }
      pc = dest;
    }
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Pc) { TINYEVM_PUSH(U256{pc - 1}); }
  TINYEVM_NEXT;
  TINYEVM_OP(MSize) { TINYEVM_PUSH(U256{memory_.size()}); }
  TINYEVM_NEXT;
  TINYEVM_OP(Gas) {
    TINYEVM_PUSH(U256{static_cast<std::uint64_t>(gas > 0 ? gas : 0)});
  }
  TINYEVM_NEXT;
  TINYEVM_OP(JumpDest) {}
  TINYEVM_NEXT;

  // --- stack families (index in e->aux) ---
  TINYEVM_OP(Push) {
    const unsigned n = e->aux;
    const U256 v =
        load_push(code + pc, pc < code_size ? code_size - pc : 0, n);
    pc += n;
    TINYEVM_PUSH(v);
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Dup) {
    const unsigned n = e->aux;
    if (n > sp || sp >= slimit) {
      fail(sp >= slimit ? Status::StackOverflow : Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    // Macro-op fusion: DUP1 immediately followed by MUL/ADD (the squaring
    // and doubling accumulation patterns) nets out to `top = top (x) top`
    // with the stack pointer unchanged, so the pair runs entirely in the
    // tos registers — no spill, no reload. Both ops are accounted exactly
    // as if executed separately; if the second op would trip gas or the
    // watchdog, fall through to the plain DUP so the failure point and
    // counters match the unfused path bit-for-bit.
    if (n == 1 && pc < code_size) {
      const DispatchEntry& ne = entries[code[pc]];
      if ((ne.handler == Handler::Mul || ne.handler == Handler::Add) &&
          (!metered || gas >= ne.gas) && ops < ops_cap) {
        if (metered) gas -= ne.gas;
        cyc += ne.cycles;
        ++ops;
        ++pc;
        if (sp + 1 > smax) smax = sp + 1;  // the transient DUP1 high-water
        if (ne.handler == Handler::Mul) {
          tos.mul_assign(tos);
        } else {
          tos.add_assign(tos);
        }
        TINYEVM_NEXT;
      }
    }
    sb[sp - 1] = tos;                 // spill; DUP1 keeps tos as-is
    if (n > 1) tos = sb[sp - n];
    ++sp;
    if (sp > smax) smax = sp;
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Swap) {
    const unsigned n = e->aux;
    if (n + 1 > sp) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    U256& other = sb[sp - 1 - n];
    const U256 t = other;
    other = tos;
    tos = t;
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Log) { TINYEVM_SYNCED(op_log(e->aux)); }
  TINYEVM_NEXT;

  // --- lifecycle ---
  TINYEVM_OP(Create) { TINYEVM_SYNCED(op_create()); }
  TINYEVM_NEXT;
  TINYEVM_OP(Call) { TINYEVM_SYNCED(op_call(CallKind::Call)); }
  TINYEVM_NEXT;
  TINYEVM_OP(CallCode) { TINYEVM_SYNCED(op_call(CallKind::CallCode)); }
  TINYEVM_NEXT;
  TINYEVM_OP(DelegateCall) { TINYEVM_SYNCED(op_call(CallKind::DelegateCall)); }
  TINYEVM_NEXT;
  TINYEVM_OP(StaticCall) { TINYEVM_SYNCED(op_call(CallKind::StaticCall)); }
  TINYEVM_NEXT;
  TINYEVM_OP(Return) { TINYEVM_SYNCED(op_return(false)); }
  TINYEVM_NEXT;
  TINYEVM_OP(Revert) { TINYEVM_SYNCED(op_return(true)); }
  TINYEVM_NEXT;
  TINYEVM_OP(Invalid) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;
  TINYEVM_OP(SelfDestruct) {
    if (msg_.is_static) {
      fail(Status::StaticViolation);
      TINYEVM_NEXT;
    }
    if (sp < 1) {
      fail(Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    const Address beneficiary = to_address(tos);
    --sp;
    tos = sb[sp - 1];
    host_.self_destruct(msg_.self, beneficiary);
    done_ = true;
  }
  TINYEVM_NEXT;

  // Superinstructions exist only in pre-decoded streams; the raw dispatch
  // table never maps a code byte to them. Labels are kept so the jump
  // table built from TINYEVM_HANDLER_LIST stays total.
  TINYEVM_OP(PushBin) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;
  TINYEVM_OP(DupBin) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;
  TINYEVM_OP(SwapBin) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;
  TINYEVM_OP(PushJump) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;
  TINYEVM_OP(PushJumpI) { fail(Status::InvalidOpcode); }
  TINYEVM_NEXT;

#if !TINYEVM_COMPUTED_GOTO
    }  // switch
  }  // for
#endif

run_exit:
  pc_ = pc;
  gas_ = gas;
  cycles_ = cyc;
  ops_ = ops;
  sb[sp - 1] = tos;  // restore the flat-memory stack view
  stack_.set_state(sp, smax);

#undef TINYEVM_SYNCED
#undef TINYEVM_PUSH
#undef TINYEVM_PROLOGUE
#undef TINYEVM_OP
#undef TINYEVM_NEXT
}

}  // namespace tinyevm::evm
