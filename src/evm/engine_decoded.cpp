// ---------------------------------------------------------------------------
// Pre-decoded interpreter loop (the PredecodedEngine / ElidedEngine body)
// ---------------------------------------------------------------------------
//
// Same token-threaded structure and register-cached state as the raw loop
// in engine_raw.cpp, but iterating over a DecodedProgram: PUSH immediates
// are already U256 values, dynamic jumps resolve through the translation's
// pc->index map instead of a per-run bitmap, and the peephole
// superinstructions (PushBin/DupBin/SwapBin/PushJump/PushJumpI) execute
// fused pairs in one dispatch. Every fused handler accounts
// gas/cycles/ops and the transient stack high-water exactly as if the two
// opcodes ran separately, and falls back to executing only the first
// opcode when the second would trip gas, the watchdog, or a stack limit —
// the second instruction is still in the stream, so the fallback path and
// all failure points are bit-identical to the raw loop (held to that by
// tests/evm_dispatch_test.cpp).
//
// The one engine-strategy knob is Frame::elide_: ElidedEngine sets it and
// the loop then runs the analyzer's span fast path at block leaders;
// PredecodedEngine leaves it off and every instruction stays checked.
//
// This TU builds with -fno-crossjumping -fno-gcse under GCC so the
// replicated dispatch tails stay distinct (see TINYEVM_NEXT below).

#include <limits>

#include "evm/frame.hpp"

namespace tinyevm::evm {

// Cache-line aligned so the dispatch tails keep their offsets mod 64
// wherever the linker puts this file: at the default 16-byte alignment,
// changes to unrelated code moved corpus_deploy by 3-6%.
[[gnu::aligned(64)]] void Frame::run_decoded() {
  const DecodedInst* const insts = decoded_->insts.data();
  const std::uint64_t inst_count = decoded_->insts.size();
  const std::uint32_t* const jmap = decoded_->jump_map.data();
  // Jump bounds come from the translation itself, not msg_.code: the two
  // are equal whenever the cache key was honest, and using the map's own
  // extent keeps a stale Message::code_hash memory-safe (a wrong
  // translation, never an out-of-bounds jump_map read).
  const std::uint64_t code_size = decoded_->code_size;
  const bool metered = profile_.metering;
  const std::uint64_t ops_cap =
      profile_.max_ops == 0 ? std::numeric_limits<std::uint64_t>::max()
                            : profile_.max_ops;
  std::uint64_t ip = 0;
  const DecodedInst* e = nullptr;
  std::int64_t gas = gas_;
  std::uint64_t cyc = cycles_;
  std::uint64_t ops = ops_;
  U256* const sb = stack_.base();  // sb[-1] is a scratch word (see Stack)
  const std::size_t slimit = stack_.limit();
  std::size_t sp = stack_.size();
  std::size_t smax = stack_.max_pointer();
  U256 tos = sp != 0 ? sb[sp - 1] : U256{};
  // Check-elision state: span summaries the translate-time analyzer
  // attached to the translation. One bool folds the engine gate and the
  // no-spans case out of the JumpDest hot path.
  const ElideSpan* const spans = decoded_->spans.data();
  const bool elide = elide_ && !decoded_->spans.empty();

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

// Identical accounting order to the raw prologue: validity short-circuit,
// folded static gas, cycle model, watchdog, instruction-pointer advance.
#define TINYEVM_PROLOGUE()                                                  \
  if (done_ || ip >= inst_count) goto run_exit;                             \
  e = &insts[ip];                                                           \
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
  ++ip;

// The run-time half of the fusion contract: the second opcode of a pair
// executes only if its prologue could not fail — gas affordable and the
// watchdog not at the boundary (stack preconditions are checked by each
// fused handler). Mirrors the raw loop's DUP1+MUL/ADD fusion guard.
#define TINYEVM_FUSE_OK() ((!metered || gas >= e->gas2) && ops < ops_cap)

// Charges the fused second opcode exactly as its own prologue would.
#define TINYEVM_FUSE_CHARGE()       \
  do {                              \
    if (metered) gas -= e->gas2;    \
    cyc += e->cycles2;              \
    ++ops;                          \
  } while (0)

// Applies a fused binary operator in place: `tos = first ⊗ tos`. The
// hottest operators (ADD/MUL/SUB and the bitwise trio) are special-cased
// so the squaring/doubling/counting patterns stay entirely in the tos
// registers, exactly like the raw loop's DUP1+MUL/ADD fusion; the long
// tail goes through the generic apply_fused_bin switch. Parameterized on
// the second-opcode handler so both the checked superinstruction handlers
// (which read e->aux2) and the span interpreter (bi->aux2) share it.
#define TINYEVM_APPLY_BIN(op2v, first)                   \
  do {                                                   \
    const Handler op2 = (op2v);                          \
    if (op2 == Handler::Add) {                           \
      tos.add_assign(first);                             \
    } else if (op2 == Handler::Mul) {                    \
      tos.mul_assign(first);                             \
    } else if (op2 == Handler::Sub) {                    \
      tos.rsub_assign(first); /* tos = first - tos */    \
    } else if (op2 == Handler::Xor) {                    \
      tos.xor_assign(first);                             \
    } else if (op2 == Handler::And) {                    \
      tos.and_assign(first);                             \
    } else if (op2 == Handler::Or) {                     \
      tos.or_assign(first);                              \
    } else {                                             \
      U256 fused_a = (first);                            \
      apply_fused_bin(op2, fused_a, tos);                \
      tos = fused_a;                                     \
    }                                                    \
  } while (0)

#define TINYEVM_FUSED_APPLY(first) \
  TINYEVM_APPLY_BIN(static_cast<Handler>(e->aux2), first)

// --- check-elided span interpreter (see analysis.hpp) ---------------------
//
// The bodies below are the checked handlers with their guards deleted and
// nothing else changed: the span entry test proves every per-instruction
// stack/gas/watchdog branch in the run would pass, so eliding them cannot
// change results. sb[sp - 1] stores into the scratch word when sp == 0
// (legal; see Stack), and smax is settled once at entry from the proven
// transient peak.
#define TINYEVM_SPAN_BIN(name, body) \
  case Handler::name: {              \
    const U256& s = sb[sp - 2];      \
    body;                            \
    --sp;                            \
  } break;

#define TINYEVM_SPAN_PUSH(v) \
  sb[sp - 1] = tos;          \
  tos = (v);                 \
  ++sp;                      \
  break;

// One test per block: when the whole elidable run after a leader is
// provably free of stack/gas/watchdog faults, bulk-charge its summary and
// execute the body with per-instruction checks compiled out. When the
// test fails, nothing happens — the checked handlers run as before and
// reproduce the exact failure point, so status, gas, stats, and logs are
// bit-identical either way. Every charge below equals the sum of the
// per-instruction prologues it replaces (fused pairs count both halves),
// and the entry conditions imply each replaced check passes:
//   sp >= stack_require        -> no underflow anywhere in the run
//   sp + stack_peak <= slimit  -> no overflow at any transient height
//   gas >= static_gas          -> every prefix of the run is affordable
//   ops + span.ops <= ops_cap  -> the watchdog stays clear of every ++ops
#define TINYEVM_TRY_SPAN(span_index)                                        \
  do {                                                                      \
    const ElideSpan& bs = spans[span_index];                                \
    if (sp >= bs.stack_require && bs.stack_peak <= slimit - sp &&           \
        (!metered || gas >= static_cast<std::int64_t>(bs.static_gas)) &&    \
        bs.ops <= ops_cap - ops) {                                          \
      if (metered) gas -= static_cast<std::int64_t>(bs.static_gas);         \
      cyc += bs.cycles;                                                     \
      ops += bs.ops;                                                        \
      if (sp + bs.stack_peak > smax) smax = sp + bs.stack_peak;             \
      const DecodedInst* bi = insts + bs.first;                             \
      const DecodedInst* const bi_end = bi + bs.count;                      \
      for (; bi != bi_end; ++bi) {                                          \
        switch (bi->handler) {                                              \
          TINYEVM_SPAN_BIN(Add, tos.add_assign(s))                          \
          TINYEVM_SPAN_BIN(Mul, tos.mul_assign(s))                          \
          TINYEVM_SPAN_BIN(Sub, tos.sub_assign(s))                          \
          TINYEVM_SPAN_BIN(Div, tos = tos / s)                              \
          TINYEVM_SPAN_BIN(Sdiv, tos = U256::sdiv(tos, s))                  \
          TINYEVM_SPAN_BIN(Mod, tos = tos % s)                              \
          TINYEVM_SPAN_BIN(Smod, tos = U256::smod(tos, s))                  \
          TINYEVM_SPAN_BIN(Lt, tos = U256{tos < s ? 1ULL : 0ULL})           \
          TINYEVM_SPAN_BIN(Gt, tos = U256{tos > s ? 1ULL : 0ULL})           \
          TINYEVM_SPAN_BIN(Slt,                                             \
                           tos = U256{U256::slt(tos, s) ? 1ULL : 0ULL})     \
          TINYEVM_SPAN_BIN(Sgt,                                             \
                           tos = U256{U256::sgt(tos, s) ? 1ULL : 0ULL})     \
          TINYEVM_SPAN_BIN(Eq, tos = U256{tos == s ? 1ULL : 0ULL})          \
          TINYEVM_SPAN_BIN(And, tos.and_assign(s))                          \
          TINYEVM_SPAN_BIN(Or, tos.or_assign(s))                            \
          TINYEVM_SPAN_BIN(Xor, tos.xor_assign(s))                          \
          TINYEVM_SPAN_BIN(Byte, tos = U256::byte(tos, s))                  \
          TINYEVM_SPAN_BIN(Shl, {                                           \
            const bool in_range = tos.fits_u64() && tos.as_u64() < 256;     \
            const unsigned sh = static_cast<unsigned>(tos.as_u64());        \
            if (in_range) {                                                 \
              tos = s;                                                      \
              tos.shl_assign(sh);                                           \
            } else {                                                        \
              tos = U256{};                                                 \
            }                                                               \
          })                                                                \
          TINYEVM_SPAN_BIN(Shr, {                                           \
            const bool in_range = tos.fits_u64() && tos.as_u64() < 256;     \
            const unsigned sh = static_cast<unsigned>(tos.as_u64());        \
            if (in_range) {                                                 \
              tos = s;                                                      \
              tos.shr_assign(sh);                                           \
            } else {                                                        \
              tos = U256{};                                                 \
            }                                                               \
          })                                                                \
          TINYEVM_SPAN_BIN(Sar, tos = U256::sar(tos, s))                    \
          TINYEVM_SPAN_BIN(SignExtend, tos = U256::signextend(tos, s))      \
          case Handler::AddMod:                                             \
            tos = U256::addmod(tos, sb[sp - 2], sb[sp - 3]);                \
            sp -= 2;                                                        \
            break;                                                          \
          case Handler::MulMod:                                             \
            tos = U256::mulmod(tos, sb[sp - 2], sb[sp - 3]);                \
            sp -= 2;                                                        \
            break;                                                          \
          case Handler::IsZero:                                             \
            tos = U256{tos.is_zero() ? 1ULL : 0ULL};                        \
            break;                                                          \
          case Handler::Not:                                                \
            tos.not_assign();                                               \
            break;                                                          \
          case Handler::Address:                                            \
            TINYEVM_SPAN_PUSH(U256::from_bytes(msg_.self))                  \
          case Handler::Origin:                                             \
            TINYEVM_SPAN_PUSH(U256::from_bytes(msg_.origin))                \
          case Handler::Caller:                                             \
            TINYEVM_SPAN_PUSH(U256::from_bytes(msg_.caller))                \
          case Handler::CallValue:                                          \
            TINYEVM_SPAN_PUSH(msg_.value)                                   \
          case Handler::CallDataLoad:                                       \
            tos = calldata_word(tos);                                       \
            break;                                                          \
          case Handler::CallDataSize:                                       \
            TINYEVM_SPAN_PUSH(U256{msg_.data.size()})                       \
          case Handler::CodeSize:                                           \
            TINYEVM_SPAN_PUSH(U256{msg_.code.size()})                       \
          case Handler::ReturnDataSize:                                     \
            TINYEVM_SPAN_PUSH(U256{return_data_.size()})                    \
          case Handler::GasPrice:                                           \
            TINYEVM_SPAN_PUSH(U256{1})                                      \
          case Handler::Pop:                                                \
            --sp;                                                           \
            tos = sb[sp - 1];                                               \
            break;                                                          \
          case Handler::Pc:                                                 \
            TINYEVM_SPAN_PUSH(U256{bi->pc})                                 \
          case Handler::MSize:                                              \
            TINYEVM_SPAN_PUSH(U256{memory_.size()})                         \
          case Handler::Push:                                               \
            TINYEVM_SPAN_PUSH(bi->imm)                                      \
          case Handler::Dup: {                                              \
            const unsigned n = bi->aux;                                     \
            sb[sp - 1] = tos; /* spill; DUP1 keeps tos as-is */             \
            if (n > 1) tos = sb[sp - n];                                    \
            ++sp;                                                           \
          } break;                                                          \
          case Handler::Swap: {                                             \
            const unsigned n = bi->aux;                                     \
            U256& other = sb[sp - 1 - n];                                   \
            const U256 t = other;                                           \
            other = tos;                                                    \
            tos = t;                                                        \
          } break;                                                          \
          case Handler::PushBin:                                            \
            TINYEVM_APPLY_BIN(static_cast<Handler>(bi->aux2), bi->imm);     \
            ++bi; /* the fallback continuation never runs fused */          \
            break;                                                          \
          case Handler::DupBin: {                                           \
            const unsigned n = bi->aux;                                     \
            const U256& dup_val = n == 1 ? tos : sb[sp - n];                \
            TINYEVM_APPLY_BIN(static_cast<Handler>(bi->aux2), dup_val);     \
            ++bi;                                                           \
          } break;                                                          \
          case Handler::SwapBin:                                            \
            TINYEVM_APPLY_BIN(static_cast<Handler>(bi->aux2), sb[sp - 2]);  \
            --sp;                                                           \
            ++bi;                                                           \
            break;                                                          \
          default:                                                          \
            break; /* unreachable: spans hold elidable handlers only */     \
        }                                                                   \
      }                                                                     \
      /* Tail: the block's terminating jump, when its target is statically \
         known. Fused PUSH+JUMP/JUMPI mirror their handlers with the       \
         guards hoisted into the entry test (the transient push's          \
         high-water is folded into stack_peak above). DynJump/DynJumpI are \
         plain JUMP/JUMPI whose operand the translate-time dataflow proved \
         constant: the destination on the stack always equals tj->target's \
         pc, so the jmap lookup and validity check are elided too (the     \
         checked handlers keep resolving from the live stack — the fuzz    \
         oracle diffs the two paths). */                                   \
      if (bs.tail == kSpanTailNone) {                                       \
        ip = bs.first + bs.count;                                           \
      } else if (bs.tail == kSpanTailJump || bs.tail == kSpanTailJumpI) {   \
        const DecodedInst* const tj = insts + bs.first + bs.count;          \
        if (bs.tail == kSpanTailJumpI) {                                    \
          const bool taken = !tos.is_zero();                                \
          --sp;                                                             \
          tos = sb[sp - 1];                                                 \
          ip = taken ? tj->target : bs.first + bs.count + 2;                \
        } else {                                                            \
          ip = tj->target;                                                  \
        }                                                                   \
      } else {                                                              \
        const DecodedInst* const tj = insts + bs.first + bs.count;          \
        if (bs.tail == kSpanTailDynJumpI) {                                 \
          const bool taken = !sb[sp - 2].is_zero();                         \
          sp -= 2;                                                          \
          tos = sb[sp - 1];                                                 \
          ip = taken ? tj->target : bs.first + bs.count + 1;                \
        } else {                                                            \
          --sp;                                                             \
          tos = sb[sp - 1];                                                 \
          ip = tj->target;                                                  \
        }                                                                   \
      }                                                                     \
    }                                                                       \
  } while (0)

  // The entry block has no JUMPDEST to hang its span on; test it before
  // the first dispatch (ip is still 0, so a pass skips straight past the
  // covered run).
  if (elide && decoded_->entry_span != kNoJumpTarget) {
    TINYEVM_TRY_SPAN(decoded_->entry_span);
  }

#if TINYEVM_COMPUTED_GOTO
  static const void* const kJump[] = {
#define TINYEVM_H_LABEL(name) &&h_##name,
      TINYEVM_HANDLER_LIST(TINYEVM_H_LABEL)
#undef TINYEVM_H_LABEL
  };
#define TINYEVM_OP(name) h_##name:
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
    // Same rule as the raw path's CodeAnalysis bitmap, resolved through
    // the translation's pc -> instruction-index map.
    const bool dest_ok = tos.fits_u64() && tos.as_u64() < code_size;
    const std::uint32_t t = dest_ok ? jmap[tos.as_u64()] : kNoJumpTarget;
    if (t == kNoJumpTarget) {
      fail(Status::InvalidJump);
      TINYEVM_NEXT;
    }
    if (msg_.jump_trace) {
      msg_.jump_trace->push_back(
          {e->pc, static_cast<std::uint32_t>(tos.as_u64())});
    }
    ip = t;
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
    const bool dest_ok = tos.fits_u64() && tos.as_u64() < code_size;
    const std::uint64_t dest = tos.as_u64();
    sp -= 2;
    tos = sb[sp - 1];
    if (taken) {
      const std::uint32_t t = dest_ok ? jmap[dest] : kNoJumpTarget;
      if (t == kNoJumpTarget) {
        fail(Status::InvalidJump);
        TINYEVM_NEXT;
      }
      if (msg_.jump_trace) {
        msg_.jump_trace->push_back({e->pc, static_cast<std::uint32_t>(dest)});
      }
      ip = t;
    }
  }
  TINYEVM_NEXT;
  TINYEVM_OP(Pc) { TINYEVM_PUSH(U256{e->pc}); }
  TINYEVM_NEXT;
  TINYEVM_OP(MSize) { TINYEVM_PUSH(U256{memory_.size()}); }
  TINYEVM_NEXT;
  TINYEVM_OP(Gas) {
    TINYEVM_PUSH(U256{static_cast<std::uint64_t>(gas > 0 ? gas : 0)});
  }
  TINYEVM_NEXT;
  TINYEVM_OP(JumpDest) {
    // Block leader: e->target carries the block's span index when the
    // analyzer proved the following run elidable (kNoJumpTarget
    // otherwise — the field is unused by JUMPDEST's own semantics).
    if (elide && e->target != kNoJumpTarget) TINYEVM_TRY_SPAN(e->target);
  }
  TINYEVM_NEXT;

  // --- stack families (index in e->aux) ---
  TINYEVM_OP(Push) { TINYEVM_PUSH(e->imm); }
  TINYEVM_NEXT;
  TINYEVM_OP(Dup) {
    // No run-time peephole here: the translator already fused every
    // DUP+operator pair into DupBin below.
    const unsigned n = e->aux;
    if (n > sp || sp >= slimit) {
      fail(sp >= slimit ? Status::StackOverflow : Status::StackUnderflow);
      TINYEVM_NEXT;
    }
    sb[sp - 1] = tos;  // spill; DUP1 keeps tos as-is
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

  // --- superinstructions (fused pairs; see the fusion contract above) ---
  //
  // Each fused body runs `tos = first ⊗ tos` in place via
  // TINYEVM_FUSED_APPLY / TINYEVM_APPLY_BIN (defined with the span
  // machinery above).
  TINYEVM_OP(PushBin) {
    // PUSHn imm; BINOP — the immediate is the first (top) operand.
    if (sp >= 1 && sp < slimit && TINYEVM_FUSE_OK()) {
      TINYEVM_FUSE_CHARGE();
      ++ip;                              // consume the second instruction
      if (sp + 1 > smax) smax = sp + 1;  // the transient PUSH high-water
      TINYEVM_FUSED_APPLY(e->imm);
    } else {
      // Plain PUSH; the operator executes as its own instruction and
      // reproduces the exact unfused failure (underflow / gas / watchdog).
      TINYEVM_PUSH(e->imm);
    }
  }
  TINYEVM_NEXT;
  TINYEVM_OP(DupBin) {
    // DUPn; BINOP — the duplicated value is the first operand.
    const unsigned n = e->aux;
    if (n <= sp && sp < slimit && TINYEVM_FUSE_OK()) {
      TINYEVM_FUSE_CHARGE();
      ++ip;
      if (sp + 1 > smax) smax = sp + 1;
      // Aliasing is fine for n == 1: the *_assign ops are self-safe.
      const U256& dup_val = n == 1 ? tos : sb[sp - n];
      TINYEVM_FUSED_APPLY(dup_val);
    } else if (n > sp || sp >= slimit) {
      fail(sp >= slimit ? Status::StackOverflow : Status::StackUnderflow);
    } else {
      sb[sp - 1] = tos;
      if (n > 1) tos = sb[sp - n];
      ++sp;
      if (sp > smax) smax = sp;
    }
  }
  TINYEVM_NEXT;
  TINYEVM_OP(SwapBin) {
    // SWAP1; BINOP — the old second element becomes the first operand.
    if (sp >= 2 && TINYEVM_FUSE_OK()) {
      TINYEVM_FUSE_CHARGE();
      ++ip;
      TINYEVM_FUSED_APPLY(sb[sp - 2]);
      --sp;
    } else if (sp < 2) {
      fail(Status::StackUnderflow);
    } else {
      const U256 t = sb[sp - 2];
      sb[sp - 2] = tos;
      tos = t;
    }
  }
  TINYEVM_NEXT;
  TINYEVM_OP(PushJump) {
    // PUSHn dest; JUMP — target index resolved at translate time.
    if (sp < slimit && TINYEVM_FUSE_OK()) {
      TINYEVM_FUSE_CHARGE();
      if (sp + 1 > smax) smax = sp + 1;
      if (e->target == kNoJumpTarget) {
        fail(Status::InvalidJump);
        TINYEVM_NEXT;
      }
      ip = e->target;
    } else {
      TINYEVM_PUSH(e->imm);
    }
  }
  TINYEVM_NEXT;
  TINYEVM_OP(PushJumpI) {
    // PUSHn dest; JUMPI — the current top is the condition.
    if (sp >= 1 && sp < slimit && TINYEVM_FUSE_OK()) {
      TINYEVM_FUSE_CHARGE();
      if (sp + 1 > smax) smax = sp + 1;
      const bool taken = !tos.is_zero();
      --sp;
      tos = sb[sp - 1];
      if (taken) {
        if (e->target == kNoJumpTarget) {
          fail(Status::InvalidJump);
          TINYEVM_NEXT;
        }
        ip = e->target;
      } else {
        ++ip;  // fall through past the JUMPI instruction
      }
    } else {
      TINYEVM_PUSH(e->imm);
    }
  }
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

#if !TINYEVM_COMPUTED_GOTO
    }  // switch
  }  // for
#endif

run_exit:
  if (e != nullptr) pc_ = e->pc;
  gas_ = gas;
  cycles_ = cyc;
  ops_ = ops;
  sb[sp - 1] = tos;  // restore the flat-memory stack view
  stack_.set_state(sp, smax);

#undef TINYEVM_SYNCED
#undef TINYEVM_PUSH
#undef TINYEVM_PROLOGUE
#undef TINYEVM_FUSE_OK
#undef TINYEVM_FUSE_CHARGE
#undef TINYEVM_APPLY_BIN
#undef TINYEVM_FUSED_APPLY
#undef TINYEVM_SPAN_BIN
#undef TINYEVM_SPAN_PUSH
#undef TINYEVM_TRY_SPAN
#undef TINYEVM_OP
#undef TINYEVM_NEXT
}

}  // namespace tinyevm::evm
