/**
 * @file
 * OooCore checkpoint save/restore: one archive visit (ckpt/codec.hh)
 * serves both directions, and its field order below — the core's
 * own fields interleaved with each component's visit() — IS the
 * payload format. Reordering, adding or dropping a visited field
 * changes the bytes; the PayloadPin tests pin them.
 *
 * Capture contract: the caller snapshots at an inter-tick boundary
 * (between two tick() calls), where every per-cycle transient
 * (fuTokens_, wbScratch_) is dead. Everything run-to-run-visible is
 * visited field by field — never by memcpy of a struct, so padding
 * bytes cannot leak into the payload digest.
 *
 * Restore contract: loadState() runs on a core freshly constructed
 * with the same (id, params, program, seed) tuple; configuration is
 * therefore not serialized, only guarded (id, program and table
 * sizes). Derived structures are rebuilt rather than deserialized:
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

template <class Ar>
void
OooCore::visit(Ar &ar)
{
    // Identity guard: a payload restored into a core built for a
    // different program or id is caught before any state moves.
    ar.expect(std::uint32_t{id_});
    ar.expect(std::uint64_t{program_->size()});
    rng_.visit(ar);

    mem_.visit(ar);
    predictor_.visit(ar);
    intr_.visit(ar);
    kbTimer_.visit(ar);
    forwarding_.visit(ar);
    dupid_.visit(ar);
    upid_.visit(ar);
    ar.u8(uinv_);

    ar.u64(cycle_);
    ar.u64(nextSeq_);

    // Fetch state.
    ar.u32(fetchPc_);
    ar.b(fetchHalted_);
    ar.u64(frontendStallUntil_);
    ar.b(onWrongPath_);
    ar.seq(ucodeQueue_, MicroOp::kCkptBytes);
    ar.u64(ucodeImm_);
    ar.u32(ucodeMacroPc_);
    ar.u32(ucodeNextPc_);
    ar.b(drainWaiting_);
    ar.b(awaitRedirect_);
    ar.u32(resumePc_);
    ar.u32(lastCommittedNextPc_);

    // Both rings are fixed-capacity: a count the live core could
    // never reach is malformed, not merely large.
    ar.seq(fetchBuffer_, RobEntry::kCkptBytes, fetchBuffer_.capacity());
    ar.seq(rob_, RobEntry::kCkptBytes, rob_.capacity());
    ar.expect(std::uint64_t{execCount_.size()});
    for (std::uint64_t &n : execCount_)
        ar.u64(n);

    ar.seq(ipiInbox_, IpiArrival::kCkptBytes);

    currentRecord_.visit(ar);
    ar.b(recordOpen_);
    ar.seq(preemptFrames_, PreemptFrame::kCkptBytes);
    ar.u32(restoresInFlight_);

    // Fast-forward controller.
    ar.b(ffMode_);
    ar.b(ffDrainPending_);
    ar.u64(ffDetailUntil_);
    ar.u64(ffIpcQ16_);
    ar.u64(ffFracQ16_);
    ar.u64(ffCalibStartCycle_);
    ar.u64(ffCalibStartInsts_);
    ar.u64(ffSpanStartInsts_);

    // Stats.
    ar.u64(stats_.cycles);
    ar.u64(stats_.committedInsts);
    ar.u64(stats_.committedUops);
    ar.u64(stats_.fetchedUops);
    ar.u64(stats_.issuedUops);
    ar.u64(stats_.squashedUops);
    ar.u64(stats_.squashes);
    ar.u64(stats_.branchMispredicts);
    ar.u64(stats_.interruptsRaised);
    ar.u64(stats_.interruptsDelivered);
    ar.u64(stats_.reinjections);
    ar.u64(stats_.slowPathForwards);
    ar.u64(stats_.drainWaitCycles);
    ar.u64(stats_.preemptions);
    ar.u64(stats_.preemptRestores);
    ar.u64(stats_.ffEntries);
    ar.u64(stats_.ffExits);
    ar.u64(stats_.ffInsts);
    ar.u64(stats_.ffCycles);
    ar.seq(stats_.intrRecords, IntrRecord::kCkptBytes);
    ar.seq(stats_.sendRecords, SendRecord::kCkptBytes);
    ar.seq(stats_.ffSpans, FfSpan::kCkptBytes);
}

void
OooCore::saveState(ckpt::Writer &w) const
{
    // visit() serves load too, so it is non-const; the Writer only
    // reads the fields it is handed.
    const_cast<OooCore *>(this)->visit(w);
}

std::size_t
OooCore::ckptBytes() const
{
    ckpt::Sizer s;
    const_cast<OooCore *>(this)->visit(s);
    return s.size();
}

bool
OooCore::loadState(ckpt::Reader &r)
{
    visit(r);
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
