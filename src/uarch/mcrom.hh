/**
 * @file
 * Micro-Sequencing ROM (MSROM): the microcode routines behind UIPI
 * and xUI instructions, expressed as real micro-op sequences that
 * flow through the pipeline.
 *
 * Routine shapes follow the paper's reverse engineering (§3.3-3.5):
 *  - senduipi: 57 uops including a UITT load, a UPID read-modify-
 *    write (remote line), and a serializing ICR MSR write that
 *    accounts for the measured 279 stall cycles;
 *  - notification processing: UPID read (remote), vector transfer to
 *    UIRR, ON-bit clear;
 *  - user interrupt delivery: pushes SP/PC/vector (the SP *read* is
 *    what creates the paper's pathological dependence case, §6.1),
 *    clears UIF, jumps to the handler;
 *  - uiret: pops state, sets UIF, returns;
 *  - KB-timer / forwarded delivery enter directly at the delivery
 *    routine, skipping all UPID traffic (§4.3, §4.5).
 *
 * Micro-op counts and fixed overhead latencies are calibration
 * parameters (McodeParams), tuned so the simulated Table 2 / Figure 2
 * values match the paper's Sapphire Rapids measurements — the same
 * methodology the paper used to calibrate its gem5 model.
 */

#ifndef XUI_UARCH_MCROM_HH
#define XUI_UARCH_MCROM_HH

#include <cstdint>
#include <vector>

#include "uarch/op_types.hh"

namespace xui
{

/** Architectural side effect attached to a micro-op. */
enum class McodeEffect : std::uint8_t
{
    None,
    /** Sender: read the UITT entry (senduipi operand lookup). */
    ReadUitt,
    /** Sender: post the user vector into the target UPID (RMW). */
    PostUpid,
    /** Sender: write the ICR — emits the notification IPI. */
    WriteIcr,
    /** Receiver: read UPID.PIR into UIRR and clear ON. */
    ReadUpidToUirr,
    /** Receiver: clear UIF (delivery disables nested UIs). */
    ClearUif,
    /** Receiver: set UIF (stui / uiret re-enable). */
    SetUif,
    /** Receiver: fetch continues at the user handler. */
    JumpHandler,
    /** Receiver: fetch returns to the saved resume PC. */
    ReturnFromHandler,
    /** xUI: arm the KB timer (set_timer). */
    SetTimerArm,
    /** xUI: disarm the KB timer (clear_timer). */
    ClearTimerArm,
    /**
     * Priority preemption: the preempted handler's frame spill is
     * architectural. Commit of this micro-op marks the end of the
     * nested span's preempt-save window (its Inject point).
     */
    PreemptSaveDone,
    /**
     * Priority preemption: the restore routine's redirect — fetch
     * returns to the preempted handler and the nested span closes.
     */
    ResumeFromPreempt,
};

/** Memory semantics of a micro-op. */
enum class MemMode : std::uint8_t
{
    None,
    /** Normal access through the local hierarchy. */
    Local,
    /** Cross-core line (UPID): invalidate + remote sourcing. */
    Remote,
};

/** One micro-op as it flows through the pipeline. */
struct MicroOp
{
    OpClass cls = OpClass::Nop;
    std::uint8_t dest = reg::kNone;
    std::uint8_t src1 = reg::kNone;
    std::uint8_t src2 = reg::kNone;
    /** Last micro-op of its macro instruction. */
    bool eom = false;
    /** Belongs to the interrupt processing/delivery path. */
    bool fromIntrPath = false;
    /** Decoded-safepoint marker (paper §4.4 micro-op bit). */
    bool safepoint = false;
    McodeEffect effect = McodeEffect::None;
    MemMode mem = MemMode::None;
    /** Fixed address for microcode accesses (UPID/UITT/stack). */
    std::uint64_t addr = 0;
    /** Overrides the OpClass latency when nonzero. */
    std::uint16_t fixedLatency = 0;

    /** Encoded size (the bound of a checkpointed sequence). */
    static constexpr std::size_t kCkptBytes = 19;

    /** Checkpoint archive visit (ckpt/codec.hh). Register fields
     *  index the rename table, so load refuses any other value. */
    template <class Ar>
    void visit(Ar &ar)
    {
        ar.enumU8(cls, OpClass::Nop);
        ar.u8(dest);
        ar.u8(src1);
        ar.u8(src2);
        ar.require(reg::valid(dest) && reg::valid(src1) &&
                   reg::valid(src2));
        ar.b(eom);
        ar.b(fromIntrPath);
        ar.b(safepoint);
        ar.enumU8(effect, McodeEffect::ResumeFromPreempt);
        ar.enumU8(mem, MemMode::Remote);
        ar.u64(addr);
        ar.u16(fixedLatency);
    }
};

/** Calibration parameters for the microcode routines. */
struct McodeParams
{
    /** senduipi: total micro-ops (paper: 57 through MSROM). */
    unsigned senduipiUops = 57;
    /** Serializing ICR write latency (paper: 279 stall cycles). */
    unsigned icrWriteLatency = 375;
    /** Notification-processing micro-op count. */
    unsigned notifyUops = 18;
    /** Delivery micro-op count (stack pushes, UIF, jump). */
    unsigned deliveryUops = 14;
    /**
     * Fixed microcode-entry overhead charged on the *flush* path
     * between squash completion and the first notification micro-op
     * (paper Fig. 2: 424 cycles between last program instruction and
     * first notification event; most of it is flush + MSROM entry).
     */
    unsigned flushUcodeEntryLatency = 430;
    /**
     * Microcode-entry overhead for tracked injection. Tracking
     * redirects the next-PC mux, so entry is nearly free (§4.2).
     */
    unsigned trackedUcodeEntryLatency = 2;
    /** Fixed extra latency of the delivery routine's first uop. */
    unsigned deliveryOverheadLatency = 45;
    /** uiret micro-op count. */
    unsigned uiretUops = 6;
    /**
     * Preempt-save micro-op count (priority preemption: spill the
     * running handler's frame before the nested delivery).
     */
    unsigned preemptSaveUops = 10;
    /** Preempt-restore micro-op count (pops + UIF + redirect). */
    unsigned preemptRestoreUops = 8;
    /** Fixed extra latency of the preempt-save routine's first uop
     *  (pipeline drain of the interrupted handler's tail). */
    unsigned preemptSaveOverheadLatency = 30;
    /** clui measured cost (Table 2: 2 cycles). */
    unsigned cluiLatency = 2;
    /** stui measured cost (Table 2: 32 cycles). */
    unsigned stuiLatency = 32;
    /** set_timer / clear_timer cost (MSR-class but user-level). */
    unsigned timerProgramLatency = 12;
    /** APIC-to-APIC wire latency for the notification IPI. */
    unsigned ipiWireLatency = 80;
};

/** Pre-built microcode routines, cloned into the pipeline on use. */
class Mcrom
{
  public:
    explicit Mcrom(const McodeParams &params = {});

    const McodeParams &params() const { return params_; }

    /** Sender path for senduipi (decoded from the macro-op). */
    const std::vector<MicroOp> &senduipi() const { return senduipi_; }

    /** Receiver: UIPI notification processing (reads the UPID). */
    const std::vector<MicroOp> &notify() const { return notify_; }

    /** Receiver: user interrupt delivery (stack pushes + jump). */
    const std::vector<MicroOp> &delivery() const { return delivery_; }

    /** uiret routine. */
    const std::vector<MicroOp> &uiret() const { return uiret_; }

    /** Priority preemption: spill the running handler's frame. */
    const std::vector<MicroOp> &preemptSave() const
    {
        return preemptSave_;
    }

    /** Priority preemption: restore the preempted handler. */
    const std::vector<MicroOp> &preemptRestore() const
    {
        return preemptRestore_;
    }

    /** clui / stui / testui / set_timer / clear_timer. */
    const std::vector<MicroOp> &clui() const { return clui_; }
    const std::vector<MicroOp> &stui() const { return stui_; }
    const std::vector<MicroOp> &setTimer() const { return setTimer_; }
    const std::vector<MicroOp> &clearTimer() const
    {
        return clearTimer_;
    }

    /** Synthetic shared addresses used by microcode accesses. */
    static constexpr std::uint64_t kUittBase = 0x7f00'0000'0000ull;
    static constexpr std::uint64_t kUpidBase = 0x7f10'0000'0000ull;
    static constexpr std::uint64_t kStackBase = 0x7f20'0000'0000ull;

  private:
    McodeParams params_;
    std::vector<MicroOp> senduipi_;
    std::vector<MicroOp> notify_;
    std::vector<MicroOp> delivery_;
    std::vector<MicroOp> uiret_;
    std::vector<MicroOp> preemptSave_;
    std::vector<MicroOp> preemptRestore_;
    std::vector<MicroOp> clui_;
    std::vector<MicroOp> stui_;
    std::vector<MicroOp> setTimer_;
    std::vector<MicroOp> clearTimer_;
};

} // namespace xui

#endif // XUI_UARCH_MCROM_HH
