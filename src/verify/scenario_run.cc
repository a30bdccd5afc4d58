#include "verify/scenario_run.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "ckpt/snapshot.hh"
#include "intr/kb_timer.hh"

namespace xui
{

ScenarioRun::ScenarioRun(const ScenarioConfig &cfg,
                         IntrLifecycleObserver *observer,
                         Tracer *extraTracer)
    : cfg_(cfg),
      prog_(makeFuzzProgram(cfg.programSeed, cfg.program)),
      sys_(cfg.systemSeed)
{
    CoreParams params;
    params.strategy = cfg.strategy;
    params.safepointMode = cfg.safepointMode;
    params.tickSkip = cfg.tickSkip;
    params.fastForward = cfg.fastForward;
    params.detailWindow = cfg.detailWindow;
    params.ffWarmup = cfg.ffWarmup;

    digest_.collectCommitPcs(&commitPcs_);
    if (extraTracer) {
        tee_.attach(&digest_);
        tee_.attach(extraTracer);
        sys_.setTracer(&tee_);
    } else {
        sys_.setTracer(&digest_);
    }
    sys_.setIntrObserver(observer);

    core_ = &sys_.addCore(params, &prog_);
    core_->kbTimer().configure(true, 0x21);
    core_->kbTimer().setTimer(0, cfg.timerPeriod,
                              KbTimerMode::Periodic);

    phase0TargetInsts_ =
        core_->stats().committedInsts + cfg.targetInsts;
    phase0CycleLimit_ = core_->now() + cfg.maxCycles;
}

void
ScenarioRun::maybeAdvancePhase()
{
    // Phase exits replicate the monolithic run loops' own exit
    // conditions, so a chunk ending exactly at a boundary and a
    // monolithic call crossing it agree on where phase 1 starts.
    if (phase_ == 0 &&
        (core_->stats().committedInsts >= phase0TargetInsts_ ||
         core_->now() >= phase0CycleLimit_ || core_->halted())) {
        phase_ = 1;
        phase1End_ = core_->now() + cfg_.extraCycles;
    }
    if (phase_ == 1 && core_->now() >= phase1End_)
        phase_ = 2;
}

bool
ScenarioRun::advance(Cycles chunkCycles)
{
    maybeAdvancePhase();
    if (phase_ == 0) {
        std::uint64_t rem_insts =
            phase0TargetInsts_ - core_->stats().committedInsts;
        Cycles rem_cycles = phase0CycleLimit_ - core_->now();
        core_->runUntilCommitted(rem_insts,
                                 std::min(chunkCycles, rem_cycles));
        maybeAdvancePhase();
    } else if (phase_ == 1) {
        Cycles rem = phase1End_ - core_->now();
        core_->runCycles(std::min(chunkCycles, rem));
        maybeAdvancePhase();
    }
    return !done();
}

void
ScenarioRun::runToEnd()
{
    while (advance(~Cycles(0))) {
    }
}

template <class Ar>
void
ScenarioRun::visit(Ar &ar)
{
    digest_.visit(ar);
    ar.seq(commitPcs_, sizeof(std::uint32_t));
    ar.enumU8(phase_, std::uint8_t{2});
    ar.u64(phase0TargetInsts_);
    ar.u64(phase0CycleLimit_);
    ar.u64(phase1End_);
}

void
ScenarioRun::saveState(ckpt::Writer &w) const
{
    // visit() serves load too, so it is non-const; the Writer and
    // the Sizer only read the fields they are handed.
    auto *self = const_cast<ScenarioRun *>(this);
    // Size first, then write into one buffer of the exact size: a
    // payload grown append by append regrows through every power of
    // two below it and copies itself each time.
    ckpt::Sizer tail;
    self->visit(tail);
    const std::size_t end = w.size() + core_->ckptBytes() + tail.size();
    w.reserve(end);
    core_->saveState(w);
    self->visit(w);
    assert(w.size() == end);
}

bool
ScenarioRun::loadState(ckpt::Reader &r)
{
    if (!core_->loadState(r))
        return false;
    visit(r);
    // The payload is the whole checkpoint: unread bytes mean it was
    // written by something else.
    return r.ok() && r.atEnd();
}

ScenarioResult
ScenarioRun::finish() const
{
    return extractScenarioResult(cfg_, prog_, *core_, digest_,
                                 commitPcs_);
}

RoundTripReport
checkRoundTrip(const ScenarioConfig &cfg, Cycles splitCycles,
               const std::string &snapshotPath)
{
    RoundTripReport rep;

    ScenarioRun reference(cfg);
    reference.runToEnd();
    ScenarioResult ref = reference.finish();

    const Cycles split =
        splitCycles != 0 ? splitCycles : ref.cycles / 2;

    // Second instance: run to the split boundary and checkpoint.
    ScenarioRun interrupted(cfg);
    while (!interrupted.done() && interrupted.now() < split)
        interrupted.advance(split - interrupted.now());
    ckpt::Writer w;
    interrupted.saveState(w);
    std::string payload = w.take();

    if (!snapshotPath.empty()) {
        // Drive the payload through the on-disk engine so the file
        // format itself is under test, not just the codec.
        ckpt::Snapshot snap;
        snap.tag = "roundtrip";
        snap.payload = std::move(payload);
        ckpt::SaveResult saved =
            ckpt::saveSnapshot(snapshotPath, snap);
        if (!saved.ok) {
            rep.message = "snapshot save failed: " + saved.error;
            return rep;
        }
        ckpt::Snapshot back;
        ckpt::LoadStatus st = ckpt::loadSnapshot(snapshotPath, back);
        ::remove(snapshotPath.c_str());
        if (st != ckpt::LoadStatus::Ok) {
            rep.message = std::string("snapshot load failed: ") +
                          ckpt::loadStatusName(st);
            return rep;
        }
        payload = std::move(back.payload);
    }

    ScenarioRun resumed(cfg);
    ckpt::Reader r(payload);
    if (!resumed.loadState(r)) {
        rep.message = "restore failed: malformed payload";
        return rep;
    }
    resumed.runToEnd();
    ScenarioResult res = resumed.finish();

    rep.referenceDigest = ref.fullDigest;
    rep.resumedDigest = res.fullDigest;
    rep.referenceEvents = ref.eventCount;
    rep.resumedEvents = res.eventCount;
    rep.bitIdentical = ref.fullDigest == res.fullDigest &&
                       ref.archDigest == res.archDigest &&
                       ref.eventCount == res.eventCount &&
                       ref.cycles == res.cycles;
    rep.ok = rep.bitIdentical;
    if (!rep.ok) {
        std::ostringstream os;
        os << "round-trip divergence: full digest " << std::hex
           << ref.fullDigest << " vs " << res.fullDigest
           << ", arch " << ref.archDigest << " vs "
           << res.archDigest << std::dec << ", events "
           << ref.eventCount << " vs " << res.eventCount
           << ", cycles " << ref.cycles << " vs " << res.cycles;
        rep.message = os.str();
    }
    return rep;
}

} // namespace xui
