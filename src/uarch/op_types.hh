/**
 * @file
 * Instruction and micro-op type definitions for the cycle-level
 * out-of-order core model.
 */

#ifndef XUI_UARCH_OP_TYPES_HH
#define XUI_UARCH_OP_TYPES_HH

#include <cstdint>

namespace xui
{

/** Macro-instruction opcodes visible to workload programs. */
enum class MacroOpcode : std::uint8_t
{
    IntAlu,     ///< integer ALU op, 1 uop
    IntMult,    ///< integer multiply
    FpAlu,      ///< FP add/sub
    FpMult,     ///< FP multiply / FMA
    Load,       ///< memory read
    Store,      ///< memory write
    Branch,     ///< conditional or unconditional branch
    Nop,        ///< no-op (also the safepoint carrier)
    Rdtsc,      ///< timestamp read (used by the spin-loop receiver)
    SendUipi,   ///< send a user IPI via a UITT index (microcoded)
    Clui,       ///< clear user interrupt flag
    Stui,       ///< set user interrupt flag
    TestUi,     ///< read user interrupt flag
    Uiret,      ///< return from user interrupt handler (microcoded)
    SetTimer,   ///< program the KB timer (xUI)
    ClearTimer, ///< disarm the KB timer (xUI)
    Halt,       ///< stop the core (end of program)
};

/** Micro-op execution classes, mapped to functional units. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    IntMult,
    FpAlu,
    FpMult,
    MemRead,
    MemWrite,
    Branch,
    /** Serializing MSR access (issues only at ROB head). */
    SerializeMsr,
    /** Fixed microcode-sequencer overhead op. */
    McodeOverhead,
    Rdtsc,
    Nop,
};

/** How a memory macro-op generates its dynamic addresses. */
enum class AddrKind : std::uint8_t
{
    None,    ///< not a memory op
    Fixed,   ///< always the same address
    Stride,  ///< base + (n * stride) % range
    Random,  ///< uniform in [base, base + range)
    Chase,   ///< pointer chase: random in range, serialized by regs
};

/** How a branch macro-op resolves its dynamic direction. */
enum class BranchKind : std::uint8_t
{
    None,        ///< not a branch
    Always,      ///< unconditional, always to target
    Never,       ///< conditional, never taken
    Loop,        ///< taken (count-1) times, then falls through
    Random,      ///< taken with probability p
};

/** Architectural register file layout (64 flat registers). */
namespace reg
{
/** General-purpose program registers. */
constexpr std::uint8_t kGpr0 = 0;
/** FP program registers. */
constexpr std::uint8_t kFpr0 = 16;
/** Stack pointer — read by the interrupt delivery microcode. */
constexpr std::uint8_t kSp = 30;
/** Scratch registers reserved for microcode routines. */
constexpr std::uint8_t kUtmp0 = 50;
/** "No register" marker. */
constexpr std::uint8_t kNone = 0xff;
/** Total architectural register count. */
constexpr unsigned kCount = 64;
/** A register field holds a register or kNone. */
constexpr bool valid(std::uint8_t r) { return r < kCount || r == kNone; }
} // namespace reg

} // namespace xui

#endif // XUI_UARCH_OP_TYPES_HH
