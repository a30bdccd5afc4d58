/**
 * @file
 * OooCore checkpoint save/restore.
 *
 * Capture contract: the caller snapshots at an inter-tick boundary
 * (between two tick() calls), where every per-cycle transient
 * (fuTokens_, wbScratch_) is dead. Everything run-to-run-visible is
 * serialized field by field — never by memcpy of a struct, so padding
 * bytes cannot leak into the payload digest.
 *
 * Restore contract: loadState() runs on a core freshly constructed
 * with the same (id, params, program, seed) tuple; configuration is
 * therefore not serialized, only validated where cheap (table sizes).
 * Derived structures are rebuilt rather than deserialized:
 *  - rename table, issue candidates, store index and occupancy
 *    counters via rebuildRenameTable(), the same routine squash
 *    recovery uses (wakeup lists restart empty: every un-issued
 *    entry is a candidate again and re-parks on its first issue
 *    check);
 *  - the producer ring and the completion wheel via
 *    rebuildExecStructures() below, since both are pure functions of
 *    the ROB contents and the current cycle.
 * The rebuilt rename table maps registers whose producer already
 * committed to seq 0 where the uninterrupted run keeps the retired
 * seq; both read as "ready now" (pendingProducer), so the divergence
 * is unobservable — the round-trip corpus test is what pins that
 * claim.
 */

#include <cstddef>

#include "uarch/ooo_core.hh"

namespace xui
{

namespace
{

/** Sanity bound on serialized container sizes (corrupt streams). */
constexpr std::uint64_t kMaxElems = 1ull << 22;

} // namespace

void
OooCore::saveUop(ckpt::Writer &w, const MicroOp &uop)
{
    w.u8(static_cast<std::uint8_t>(uop.cls));
    w.u8(uop.dest);
    w.u8(uop.src1);
    w.u8(uop.src2);
    w.b(uop.eom);
    w.b(uop.fromIntrPath);
    w.b(uop.safepoint);
    w.u8(static_cast<std::uint8_t>(uop.effect));
    w.u8(static_cast<std::uint8_t>(uop.mem));
    w.u64(uop.addr);
    w.u16(uop.fixedLatency);
}

bool
OooCore::loadUop(ckpt::Reader &r, MicroOp &uop)
{
    std::uint8_t cls = 0, effect = 0, mem = 0;
    if (!r.u8(cls) ||
        cls > static_cast<std::uint8_t>(OpClass::Nop))
        return r.fail();
    uop.cls = static_cast<OpClass>(cls);
    if (!r.u8(uop.dest) || !r.u8(uop.src1) || !r.u8(uop.src2) ||
        !r.b(uop.eom) || !r.b(uop.fromIntrPath) ||
        !r.b(uop.safepoint))
        return false;
    if (!r.u8(effect) ||
        effect > static_cast<std::uint8_t>(
                     McodeEffect::ResumeFromPreempt))
        return r.fail();
    uop.effect = static_cast<McodeEffect>(effect);
    if (!r.u8(mem) ||
        mem > static_cast<std::uint8_t>(MemMode::Remote))
        return r.fail();
    uop.mem = static_cast<MemMode>(mem);
    return r.u64(uop.addr) && r.u16(uop.fixedLatency);
}

void
OooCore::saveRobEntry(ckpt::Writer &w, const RobEntry &e)
{
    saveUop(w, e.uop);
    w.u64(e.seq);
    w.u32(e.pc);
    w.u32(e.nextPc);
    w.u64(e.imm);
    w.b(e.issued);
    w.b(e.done);
    w.u64(e.readyAt);
    w.u64(e.addr);
    w.b(e.isBranch);
    w.b(e.staticBranch);
    w.b(e.predictedTaken);
    w.b(e.actualTaken);
    w.b(e.mispredicted);
    w.b(e.wrongPath);
    w.b(e.countedExec);
    w.u32(e.correctTarget);
    w.u64(e.historyBefore);
    w.u64(e.dep1);
    w.u64(e.dep2);
    // Reserved word, always zero: keeps the payload layout and size
    // of earlier snapshots.
    w.u64(0);
}

bool
OooCore::loadRobEntry(ckpt::Reader &r, RobEntry &e)
{
    std::uint64_t reserved = 0;
    return loadUop(r, e.uop) && r.u64(e.seq) && r.u32(e.pc) &&
           r.u32(e.nextPc) && r.u64(e.imm) && r.b(e.issued) &&
           r.b(e.done) && r.u64(e.readyAt) && r.u64(e.addr) &&
           r.b(e.isBranch) && r.b(e.staticBranch) &&
           r.b(e.predictedTaken) && r.b(e.actualTaken) &&
           r.b(e.mispredicted) && r.b(e.wrongPath) &&
           r.b(e.countedExec) && r.u32(e.correctTarget) &&
           r.u64(e.historyBefore) && r.u64(e.dep1) &&
           r.u64(e.dep2) && r.u64(reserved);
}

void
OooCore::saveIntrRecord(ckpt::Writer &w, const IntrRecord &rec)
{
    w.u8(static_cast<std::uint8_t>(rec.source));
    w.u8(rec.vector);
    w.u64(rec.spanId);
    w.u64(rec.raisedAt);
    w.u64(rec.acceptedAt);
    w.u64(rec.injectedAt);
    w.u64(rec.firstUopCommitAt);
    w.u64(rec.deliveryExecAt);
    w.u64(rec.deliveryCommitAt);
    w.u64(rec.uiretCommitAt);
    w.u64(rec.saveStartAt);
    w.u64(rec.restoredAt);
    w.b(rec.preempting);
}

bool
OooCore::loadIntrRecord(ckpt::Reader &r, IntrRecord &rec)
{
    std::uint8_t src = 0;
    if (!r.u8(src) || src > 2)
        return r.fail();
    rec.source = static_cast<IntrSource>(src);
    return r.u8(rec.vector) && r.u64(rec.spanId) &&
           r.u64(rec.raisedAt) && r.u64(rec.acceptedAt) &&
           r.u64(rec.injectedAt) && r.u64(rec.firstUopCommitAt) &&
           r.u64(rec.deliveryExecAt) && r.u64(rec.deliveryCommitAt) &&
           r.u64(rec.uiretCommitAt) && r.u64(rec.saveStartAt) &&
           r.u64(rec.restoredAt) && r.b(rec.preempting);
}

void
OooCore::saveState(ckpt::Writer &w) const
{
    // Identity guard: a payload restored into a core built for a
    // different program or id is caught before any state moves.
    w.u32(id_);
    w.u64(program_->size());

    for (unsigned i = 0; i < 4; ++i)
        w.u64(rng_.stateWord(i));

    mem_.saveState(w);
    predictor_.saveState(w);
    intr_.saveState(w);
    w.b(kbTimer_.enabled());
    w.u8(kbTimer_.vector());
    w.b(kbTimer_.armed());
    w.u8(static_cast<std::uint8_t>(kbTimer_.mode()));
    w.u64(kbTimer_.deadline());
    w.u64(kbTimer_.period());
    for (unsigned i = 0; i < 4; ++i)
        w.u64(forwarding_.enabledMask().word(i));
    for (unsigned i = 0; i < 4; ++i)
        w.u64(forwarding_.activeMask().word(i));
    for (unsigned i = 0; i < 4; ++i)
        w.u64(forwarding_.uirr().word(i));
    for (unsigned i = 0; i < 4; ++i)
        w.u64(dupid_.pending().word(i));
    w.u64(upid_.rawLow());
    w.u64(upid_.rawPir());
    w.u8(uinv_);

    w.u64(cycle_);
    w.u64(nextSeq_);

    // Fetch state.
    w.u32(fetchPc_);
    w.b(fetchHalted_);
    w.u64(frontendStallUntil_);
    w.b(onWrongPath_);
    w.u64(ucodeQueue_.size());
    for (const MicroOp &uop : ucodeQueue_)
        saveUop(w, uop);
    w.u64(ucodeImm_);
    w.u32(ucodeMacroPc_);
    w.u32(ucodeNextPc_);
    w.b(drainWaiting_);
    w.b(awaitRedirect_);
    w.u32(resumePc_);
    w.u32(lastCommittedNextPc_);

    w.u64(fetchBuffer_.size());
    for (const RobEntry &e : fetchBuffer_)
        saveRobEntry(w, e);
    w.u64(rob_.size());
    for (const RobEntry &e : rob_)
        saveRobEntry(w, e);
    w.vecU64(execCount_);

    w.u64(ipiInbox_.size());
    for (const IpiArrival &a : ipiInbox_) {
        w.u8(a.vector);
        w.u64(a.when);
    }

    saveIntrRecord(w, currentRecord_);
    w.b(recordOpen_);
    w.u64(preemptFrames_.size());
    for (const PreemptFrame &f : preemptFrames_) {
        w.u32(f.resumePc);
        saveIntrRecord(w, f.record);
        w.b(f.recordOpen);
    }
    w.u32(restoresInFlight_);

    // Fast-forward controller.
    w.b(ffMode_);
    w.b(ffDrainPending_);
    w.u64(ffDetailUntil_);
    w.u64(ffIpcQ16_);
    w.u64(ffFracQ16_);
    w.u64(ffCalibStartCycle_);
    w.u64(ffCalibStartInsts_);
    w.u64(ffSpanStartInsts_);

    // Stats.
    w.u64(stats_.cycles);
    w.u64(stats_.committedInsts);
    w.u64(stats_.committedUops);
    w.u64(stats_.fetchedUops);
    w.u64(stats_.issuedUops);
    w.u64(stats_.squashedUops);
    w.u64(stats_.squashes);
    w.u64(stats_.branchMispredicts);
    w.u64(stats_.interruptsRaised);
    w.u64(stats_.interruptsDelivered);
    w.u64(stats_.reinjections);
    w.u64(stats_.slowPathForwards);
    w.u64(stats_.drainWaitCycles);
    w.u64(stats_.preemptions);
    w.u64(stats_.preemptRestores);
    w.u64(stats_.ffEntries);
    w.u64(stats_.ffExits);
    w.u64(stats_.ffInsts);
    w.u64(stats_.ffCycles);
    w.u64(stats_.intrRecords.size());
    for (const IntrRecord &rec : stats_.intrRecords)
        saveIntrRecord(w, rec);
    w.u64(stats_.sendRecords.size());
    for (const SendRecord &rec : stats_.sendRecords) {
        w.u64(rec.dispatchedAt);
        w.u64(rec.icrCommitAt);
    }
    w.u64(stats_.ffSpans.size());
    for (const FfSpan &span : stats_.ffSpans) {
        w.u64(span.enteredAt);
        w.u64(span.exitedAt);
        w.u64(span.insts);
    }
}

bool
OooCore::loadState(ckpt::Reader &r)
{
    std::uint32_t id = 0;
    std::uint64_t programSize = 0;
    if (!r.u32(id) || id != id_ || !r.u64(programSize) ||
        programSize != program_->size())
        return r.fail();

    for (unsigned i = 0; i < 4; ++i) {
        std::uint64_t word = 0;
        if (!r.u64(word))
            return false;
        rng_.setStateWord(i, word);
    }

    if (!mem_.loadState(r) || !predictor_.loadState(r) ||
        !intr_.loadState(r))
        return false;
    {
        bool enabled = false, armed = false;
        std::uint8_t vector = 0, mode = 0;
        std::uint64_t deadline = 0, period = 0;
        if (!r.b(enabled) || !r.u8(vector) || !r.b(armed) ||
            !r.u8(mode) || mode > 1 || !r.u64(deadline) ||
            !r.u64(period))
            return r.fail();
        kbTimer_.loadRawState(enabled, vector, armed,
                              static_cast<KbTimerMode>(mode),
                              deadline, period);
    }
    {
        Bitset256 enabled, active, uirr, parked;
        for (unsigned i = 0; i < 4; ++i) {
            std::uint64_t word = 0;
            if (!r.u64(word))
                return false;
            enabled.setWord(i, word);
        }
        for (unsigned i = 0; i < 4; ++i) {
            std::uint64_t word = 0;
            if (!r.u64(word))
                return false;
            active.setWord(i, word);
        }
        for (unsigned i = 0; i < 4; ++i) {
            std::uint64_t word = 0;
            if (!r.u64(word))
                return false;
            uirr.setWord(i, word);
        }
        forwarding_.loadRegisters(enabled, active, uirr);
        for (unsigned i = 0; i < 4; ++i) {
            std::uint64_t word = 0;
            if (!r.u64(word))
                return false;
            parked.setWord(i, word);
        }
        dupid_.loadPending(parked);
    }
    {
        std::uint64_t low = 0, pir = 0;
        if (!r.u64(low) || !r.u64(pir))
            return false;
        upid_.loadRaw(low, pir);
    }
    if (!r.u8(uinv_) || !r.u64(cycle_) || !r.u64(nextSeq_))
        return false;

    if (!r.u32(fetchPc_) || !r.b(fetchHalted_) ||
        !r.u64(frontendStallUntil_) || !r.b(onWrongPath_))
        return false;
    std::uint64_t n = 0;
    if (!r.u64(n) || n > kMaxElems)
        return r.fail();
    ucodeQueue_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        MicroOp uop;
        if (!loadUop(r, uop))
            return false;
        ucodeQueue_.push_back(uop);
    }
    if (!r.u64(ucodeImm_) || !r.u32(ucodeMacroPc_) ||
        !r.u32(ucodeNextPc_) || !r.b(drainWaiting_) ||
        !r.b(awaitRedirect_) || !r.u32(resumePc_) ||
        !r.u32(lastCommittedNextPc_))
        return false;

    // Both rings are fixed-capacity: a count the live core could
    // never reach is malformed, not merely large.
    if (!r.u64(n) || n > fetchBuffer_.capacity())
        return r.fail();
    fetchBuffer_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!loadRobEntry(r, fetchBuffer_.emplace_back()))
            return false;
    }
    if (!r.u64(n) || n > rob_.capacity())
        return r.fail();
    rob_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!loadRobEntry(r, rob_.emplace_back()))
            return false;
    }
    std::vector<std::uint64_t> execCount;
    if (!r.vecU64(execCount) || execCount.size() != execCount_.size())
        return r.fail();
    execCount_ = std::move(execCount);

    if (!r.u64(n) || n > kMaxElems)
        return r.fail();
    ipiInbox_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        IpiArrival a{};
        if (!r.u8(a.vector) || !r.u64(a.when))
            return false;
        ipiInbox_.push_back(a);
    }

    if (!loadIntrRecord(r, currentRecord_) || !r.b(recordOpen_))
        return false;
    if (!r.u64(n) || n > kMaxElems)
        return r.fail();
    preemptFrames_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PreemptFrame f{};
        if (!r.u32(f.resumePc) || !loadIntrRecord(r, f.record) ||
            !r.b(f.recordOpen))
            return false;
        preemptFrames_.push_back(std::move(f));
    }
    if (!r.u32(restoresInFlight_))
        return false;

    if (!r.b(ffMode_) || !r.b(ffDrainPending_) ||
        !r.u64(ffDetailUntil_) || !r.u64(ffIpcQ16_) ||
        !r.u64(ffFracQ16_) || !r.u64(ffCalibStartCycle_) ||
        !r.u64(ffCalibStartInsts_) || !r.u64(ffSpanStartInsts_))
        return false;

    if (!r.u64(stats_.cycles) || !r.u64(stats_.committedInsts) ||
        !r.u64(stats_.committedUops) || !r.u64(stats_.fetchedUops) ||
        !r.u64(stats_.issuedUops) || !r.u64(stats_.squashedUops) ||
        !r.u64(stats_.squashes) ||
        !r.u64(stats_.branchMispredicts) ||
        !r.u64(stats_.interruptsRaised) ||
        !r.u64(stats_.interruptsDelivered) ||
        !r.u64(stats_.reinjections) ||
        !r.u64(stats_.slowPathForwards) ||
        !r.u64(stats_.drainWaitCycles) ||
        !r.u64(stats_.preemptions) ||
        !r.u64(stats_.preemptRestores) || !r.u64(stats_.ffEntries) ||
        !r.u64(stats_.ffExits) || !r.u64(stats_.ffInsts) ||
        !r.u64(stats_.ffCycles))
        return false;
    if (!r.u64(n) || n > kMaxElems)
        return r.fail();
    stats_.intrRecords.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        IntrRecord rec{};
        if (!loadIntrRecord(r, rec))
            return false;
        stats_.intrRecords.push_back(rec);
    }
    if (!r.u64(n) || n > kMaxElems)
        return r.fail();
    stats_.sendRecords.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        SendRecord rec{};
        if (!r.u64(rec.dispatchedAt) || !r.u64(rec.icrCommitAt))
            return false;
        stats_.sendRecords.push_back(rec);
    }
    if (!r.u64(n) || n > kMaxElems)
        return r.fail();
    stats_.ffSpans.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        FfSpan span{};
        if (!r.u64(span.enteredAt) || !r.u64(span.exitedAt) ||
            !r.u64(span.insts))
            return false;
        stats_.ffSpans.push_back(span);
    }

    if (!r.ok())
        return false;

    rebuildRenameTable();
    rebuildExecStructures();
    return true;
}

void
OooCore::rebuildExecStructures()
{
    // Producer ring: a pure function of the live ROB. Slots are
    // invalidated on commit/squash, so only in-flight seqs may
    // occupy one.
    std::fill(ringSeq_.begin(), ringSeq_.end(), 0);
    std::fill(ringEntry_.begin(), ringEntry_.end(), nullptr);
    for (auto &bucket : wbWheel_)
        bucket.clear();
    farWb_.clear();
    wbScratch_.clear();
    for (RobEntry &e : rob_) {
        std::size_t slot = e.seq & kRingMask;
        ringSeq_[slot] = e.seq;
        ringEntry_[slot] = &e;
        // Completion wheel: only issued-but-incomplete entries are
        // awaiting writeback. Membership (wheel vs far list) follows
        // the same distance rule scheduleWriteback applies, relative
        // to the restored cycle; drain order is seq-sorted there, so
        // rebuild order is free.
        if (e.issued && !e.done) {
            if (e.readyAt - cycle_ < kWbSpan)
                wbWheel_[e.readyAt & kWbMask].push_back(e.seq);
            else
                farWb_.push_back(e.seq);
        }
    }
}

} // namespace xui
