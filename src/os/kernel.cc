#include "os/kernel.hh"

#include <algorithm>
#include <cassert>

#include "obs/kernel_trace.hh"

namespace xui
{

static_assert(Kernel::kNoVector == KernelCounterTrace::kNoVector);

void
Kernel::traceSample(KernelStat stat, unsigned vector, std::uint64_t n)
{
    ktrace_->bump(kKernelStats[static_cast<std::size_t>(stat)].name,
                  vector, sim_.now(), n);
}

Kernel::Kernel(Simulation &sim, const CostModel &costs,
               unsigned num_cores)
    : sim_(sim), costs_(costs), cores_(num_cores)
{
    assert(num_cores >= 1);
}

Kernel::Thread &
Kernel::thread(ThreadId id)
{
    assert(id < threads_.size() && threads_[id].exists);
    return threads_[id];
}

const Kernel::Thread &
Kernel::thread(ThreadId id) const
{
    assert(id < threads_.size() && threads_[id].exists);
    return threads_[id];
}

ThreadId
Kernel::createThread()
{
    Thread t;
    t.exists = true;
    threads_.push_back(std::move(t));
    return static_cast<ThreadId>(threads_.size() - 1);
}

ThreadId
Kernel::runningOn(CoreId core) const
{
    assert(core < cores_.size());
    return cores_[core].running;
}

bool
Kernel::isRunning(ThreadId id) const
{
    return thread(id).running;
}

void
Kernel::deliver(IntrSource source, ThreadId id, unsigned vector,
                bool booked)
{
    if (deliverViaEngine(id, vector, source, booked))
        return;  // Return is emitted when the frame completes
    emit(IntrStage::Deliver, source, id, vector);
    Thread &t = thread(id);
    if (t.handler)
        t.handler(vector);
    if (booked)
        emit(IntrStage::Return, source, id, vector);
}

unsigned
Kernel::drainParked(ThreadId id)
{
    Thread &t = thread(id);
    unsigned delivered = 0;
    inResumeDrain_ = true;
    // UIPI slow path: interrupts posted to the UPID while the thread
    // was descheduled are reposted as self-UIPIs on resume (§3.2).
    if (t.hasUpid && t.upid.hasPending())
        delivered += scanUpid(id);
    // Forwarded-interrupt slow path: drain the DUPID (§4.5).
    if (t.dupid.hasPending()) {
        Bitset256 parked = t.dupid.fetchAndClear();
        for (unsigned v = parked.findFirst(); v < 256;
             v = parked.findFirst()) {
            parked.clear(v);
            deliver(IntrSource::Forwarded, id, v);
            const DeliveryPolicy *p = policyFor(t, v);
            if (p != nullptr &&
                p->behavior == DeliveryBehavior::NextOrMissed) {
                note(KernelStat::ModerationMissedThenDelivered, v);
            }
            ++delivered;
        }
    }
    inResumeDrain_ = false;
    return delivered;
}

unsigned
Kernel::scanUpid(ThreadId id)
{
    Thread &t = thread(id);
    std::uint64_t pir = t.upid.fetchAndClearPir();
    t.upid.clearOutstanding();
    unsigned delivered = 0;
    for (unsigned v = 0; v < kNumUserVectors; ++v) {
        if ((pir >> v) & 1) {
            deliver(IntrSource::UserIpi, id, v);
            if (inResumeDrain_) {
                const DeliveryPolicy *p = policyFor(t, v);
                if (p != nullptr &&
                    p->behavior ==
                        DeliveryBehavior::NextOrMissed) {
                    note(KernelStat::ModerationMissedThenDelivered, v);
                }
            }
            ++delivered;
        }
    }
    return delivered;
}

void
Kernel::notifyArrived(ThreadId id)
{
    Thread &t = thread(id);
    if (!t.hasUpid)
        return;
    if (!t.running)
        return;  // posts stay parked; resume-drain is the fallback
    if (t.upid.hasPending()) {
        scanUpid(id);
    } else {
        // Dedup absorbed it (duplicate/storm): scan finds nothing.
        t.upid.clearOutstanding();
        note(KernelStat::RecoverySpuriousScans);
    }
}

void
Kernel::scheduleUpidRecovery(ThreadId id, unsigned attempt)
{
    Cycles delay = recoveryBackoff_ << attempt;
    sim_.queue().scheduleAfter(delay, [this, id, attempt] {
        Thread &t = thread(id);
        if (!t.hasUpid || !t.upid.hasPending())
            return;  // fast path or resume-drain beat the rescan
        if (t.running) {
            unsigned n = scanUpid(id);
            note(KernelStat::RecoveryUpidRescan, kNoVector, n);
            return;
        }
        // Receiver descheduled: retry with backoff; if retries run
        // out, the posts stay parked and the resume-drain slow path
        // (scheduleOn) remains the designed fallback.
        if (attempt + 1 < maxRecoveryAttempts_) {
            note(KernelStat::RecoveryRescanRetry);
            scheduleUpidRecovery(id, attempt + 1);
        } else {
            note(KernelStat::RecoveryParkedFallback);
        }
    });
}

Cycles
Kernel::scheduleOn(ThreadId id, CoreId core_id)
{
    assert(core_id < cores_.size());
    Core &core = cores_[core_id];
    Cycles cost = costs_.contextSwitch;

    if (core.running != kNoThread && core.running != id)
        cost += deschedule(core.running) - costs_.contextSwitch;

    Thread &t = thread(id);
    assert(!t.running && "thread already running elsewhere");
    t.running = true;
    t.core = core_id;
    core.running = id;

    // Resume accepts user interrupts again: clear SN.
    if (t.hasUpid) {
        t.upid.setSuppressed(false);
        t.upid.setDestination(core_id);
    }

    // Restore the KB timer image; a missed deadline fires now.
    if (t.timerEnabled) {
        core.timer.configure(true, t.timerVector);
        bool missed = t.timerSave.armed &&
            core.timer.restore(t.timerSave, sim_.now());
        if (missed && t.handler) {
            cost += costs_.kbTimerReceive;
            if (!t.timerDuePosted)
                emit(IntrStage::Raise, IntrSource::KbTimer, id, t.timerVector);
            deliver(IntrSource::KbTimer, id, t.timerVector);
            if (t.timerDuePosted) {
                t.timerDuePosted = false;
                note(KernelStat::RecoveryKbTimerLate, t.timerVector);
            }
        }
    } else {
        core.timer.configure(false, 0);
    }

    // Publish the thread's forwarded vectors.
    core.fwd.setActiveMask(t.fwdMask);

    // Deliver anything parked while the thread was out.
    unsigned reposts = drainParked(id);
    cost += reposts * costs_.uipiTrackedReceive;
    note(KernelStat::Reposts, kNoVector, reposts);

    // A pending interval-timer signal fires on resume.
    if (t.pendingSignal) {
        t.pendingSignal = false;
        deliver(IntrSource::Signal, id, t.pendingSigno);
        ++signalsDelivered_;
        note(KernelStat::SignalsDelivered);
        cost += costs_.signalReceive;
    }

    note(KernelStat::ContextSwitches);
    return cost;
}

Cycles
Kernel::deschedule(ThreadId id)
{
    Thread &t = thread(id);
    if (!t.running)
        return 0;
    Core &core = cores_[t.core];

    // Halt further sender notifications (SN bit, §3.2).
    if (t.hasUpid)
        t.upid.setSuppressed(true);

    // Save the live timer so it can be restored on resume (§4.3).
    if (t.timerEnabled) {
        t.timerSave = core.timer.saveAndDisarm();
        // An observed-but-undelivered expiry (fault drop/delay)
        // travels with the thread: the restore-missed path on the
        // next resume completes delivery and the accounting.
        if (core.timerDue) {
            core.timerDue = false;
            core.timerMisfired = false;
            t.timerDuePosted = true;
        }
    }

    // The next thread's forwarded_active mask replaces this one's;
    // clear it in the meantime so arrivals take the slow path.
    core.fwd.setActiveMask(Bitset256{});

    t.running = false;
    core.running = kNoThread;
    return costs_.contextSwitch;
}

void
Kernel::registerHandler(ThreadId id,
                        std::function<void(unsigned)> handler)
{
    Thread &t = thread(id);
    t.hasUpid = true;
    t.handler = std::move(handler);
    t.upid.setNotificationVector(0xec);
    upidOwner_[&t.upid] = id;
}

int
Kernel::registerSender(ThreadId target, std::uint8_t user_vector)
{
    Thread &t = thread(target);
    if (!t.hasUpid)
        return -1;
    return uitt_.allocate(&t.upid, user_vector);
}

DeliveryPath
Kernel::senduipi(int uitt_index)
{
    const UittEntry *entry = uitt_.lookup(uitt_index);
    assert(entry != nullptr && "senduipi with invalid UITT index");

    auto it = upidOwner_.find(entry->upid);
    assert(it != upidOwner_.end());
    ThreadId tid = it->second;
    unsigned uv = entry->userVector;

    Thread &t = thread(tid);
    const DeliveryPolicy *policy = policyFor(t, uv);

    // NEXT_ONLY: a post toward a receiver that can't take it is
    // missed by design — it never reaches the PIR, and the stream
    // reports it as an intended miss (Raise, then Drop).
    if (policy != nullptr &&
        policy->behavior == DeliveryBehavior::NextOnly &&
        !t.running) {
        emit(IntrStage::Raise, IntrSource::UserIpi, tid, uv);
        emit(IntrStage::Drop, IntrSource::UserIpi, tid, uv);
        note(KernelStat::ModerationMissed, uv);
        return DeliveryPath::Suppressed;
    }

    Upid::PostResult result = entry->upid->post(uv);
    emit(IntrStage::Raise, IntrSource::UserIpi, tid, uv);

    // Moderation gates only the notification: the post is already
    // in the PIR, so the eventual flush scan delivers the batch.
    if (t.running && !t.moderators.empty()) {
        auto mit = t.moderators.find(uv);
        if (mit != t.moderators.end()) {
            switch (mit->second.onPost(sim_.now())) {
              case VectorModerator::Verdict::Coalesced:
                note(KernelStat::ModerationCoalesced, uv);
                return DeliveryPath::Deferred;
              case VectorModerator::Verdict::OpenWindow: {
                note(KernelStat::ModerationSuppressed, uv);
                Cycles delay = mit->second.flushAt() - sim_.now();
                sim_.queue().scheduleAfter(
                    delay == 0 ? 1 : delay, [this, tid, uv] {
                        moderationFlush(tid, uv);
                    });
                return DeliveryPath::Deferred;
              }
              case VectorModerator::Verdict::Deliver:
                break;
            }
        }
    }

    if (!result.sendIpi) {
        // Level trigger: pending state re-raises the notification
        // even without an ON 0->1 edge, so a post that finds a
        // stranded PIR (e.g. after a dropped IPI) rescans now
        // instead of waiting for the recovery backoff.
        if (policy != nullptr &&
            policy->trigger == TriggerMode::Level && t.running) {
            note(KernelStat::ModerationLevelRedeliver, uv);
            scanUpid(tid);
            return DeliveryPath::Fast;
        }
        note(KernelStat::SenduipiSuppressed);
        return DeliveryPath::Suppressed;
    }

    if (!t.running) {
        // Race: SN not yet observed; kernel captures it for later.
        note(KernelStat::SenduipiDeferred);
        return DeliveryPath::Deferred;
    }

    // The notification IPI is in flight: the fault fabric may drop,
    // delay, duplicate, reorder, or storm it (Site::NotifyIpi).
    if (fault_ != nullptr) {
        auto d = fault_->decide(fault::Site::NotifyIpi);
        switch (d.action) {
          case fault::Action::Drop:
            // IPI lost on the wire: the post stays in the PIR. The
            // recovery rescan (or the resume-drain slow path)
            // eventually delivers it.
            note(KernelStat::FaultIpiDropped);
            if (recoveryEnabled_)
                scheduleUpidRecovery(tid, 0);
            return DeliveryPath::Deferred;
          case fault::Action::Delay: {
            Cycles delta = d.magnitude == 0 ? 1 : d.magnitude;
            note(KernelStat::FaultIpiDelayed);
            sim_.queue().scheduleAfter(delta, [this, tid] {
                notifyArrived(tid);
            });
            return DeliveryPath::Deferred;
          }
          case fault::Action::Duplicate:
            // Deliver now *and* echo the IPI one cycle later; the
            // second scan finds an empty PIR (spurious).
            note(KernelStat::FaultIpiDuplicated);
            sim_.queue().scheduleAfter(1, [this, tid] {
                notifyArrived(tid);
            });
            break;
          case fault::Action::Reorder:
            // The IPI overtakes the PIR write: the scan runs before
            // the post is visible, finds nothing, and returns. The
            // rescan path recovers the stranded post.
            note(KernelStat::FaultIpiReordered);
            t.upid.clearOutstanding();
            note(KernelStat::RecoverySpuriousScans);
            if (recoveryEnabled_)
                scheduleUpidRecovery(tid, 0);
            return DeliveryPath::Deferred;
          case fault::Action::Storm: {
            unsigned copies = d.magnitude == 0 ? 1 : d.magnitude;
            note(KernelStat::FaultIpiStorm, kNoVector, copies);
            for (unsigned i = 0; i < copies; ++i) {
                sim_.queue().scheduleAfter(1 + i, [this, tid] {
                    notifyArrived(tid);
                });
            }
            break;
          }
          case fault::Action::None:
          case fault::Action::Spurious:
          default:
            break;
        }
    }

    // Fast path: notification IPI hits the running thread.
    scanUpid(tid);
    note(KernelStat::SenduipiFast);
    return DeliveryPath::Fast;
}

void
Kernel::setDeliveryPolicy(ThreadId id, unsigned vector,
                          DeliveryPolicy policy)
{
    thread(id).policies[vector] = policy;
}

void
Kernel::setModeration(ThreadId id, unsigned vector,
                      ModerationParams params)
{
    Thread &t = thread(id);
    t.moderators.erase(vector);
    if (params.enabled())
        t.moderators.emplace(vector, VectorModerator(params));
}

const DeliveryPolicy *
Kernel::policyFor(const Thread &t, unsigned vector) const
{
    if (t.policies.empty())
        return nullptr;
    auto it = t.policies.find(vector);
    return it == t.policies.end() ? nullptr : &it->second;
}

void
Kernel::moderationFlush(ThreadId id, unsigned vector)
{
    Thread &t = thread(id);
    auto mit = t.moderators.find(vector);
    if (mit == t.moderators.end())
        return;
    VectorModerator &mod = mit->second;
    if (!mod.flushPending())
        return;  // cancelled by an earlier fault or reconfiguration

    if (fault_ != nullptr) {
        auto d = fault_->decide(fault::Site::ModerationFlush);
        if (d.action == fault::Action::Drop) {
            // The flush event is lost. The batch stays in the PIR:
            // later posts open a fresh window, and the rescan or
            // resume-drain paths recover the stranded posts. The
            // moderator must forget the window or every future post
            // would coalesce into a flush that never comes.
            mod.cancelFlush();
            note(KernelStat::ModerationFlushDropped, vector);
            if (recoveryEnabled_)
                scheduleUpidRecovery(id, 0);
            return;
        }
        if (d.action == fault::Action::Delay) {
            Cycles delta = d.magnitude == 0 ? 1 : d.magnitude;
            note(KernelStat::ModerationFlushDelayed, vector);
            sim_.queue().scheduleAfter(delta, [this, id, vector] {
                moderationFlush(id, vector);
            });
            return;
        }
    }

    mod.onFlush(sim_.now());
    note(KernelStat::ModerationFlushes, vector);
    if (!t.running) {
        // Receiver descheduled between post and flush: the batch
        // stays parked; resume drain (or the rescan) delivers it.
        if (recoveryEnabled_)
            scheduleUpidRecovery(id, 0);
        return;
    }
    if (t.hasUpid && t.upid.hasPending()) {
        scanUpid(id);
    } else {
        // Resume drain beat the flush to the batch.
        note(KernelStat::RecoverySpuriousScans, vector);
    }
}

void
Kernel::setHandlerCost(ThreadId id, unsigned vector, Cycles cost)
{
    thread(id).handlerCosts[vector] = cost;
}

std::size_t
Kernel::enginePreemptDepth(ThreadId id) const
{
    return thread(id).engFrames.size();
}

std::size_t
Kernel::engineDeferredCount(ThreadId id) const
{
    return thread(id).engDeferred.size();
}

bool
Kernel::engineIdle(ThreadId id) const
{
    const Thread &t = thread(id);
    return t.engState == EngState::Idle && t.engFrames.empty() &&
        t.engDeferred.empty();
}

unsigned
Kernel::enginePriority(const Thread &t, unsigned vector) const
{
    const DeliveryPolicy *p = policyFor(t, vector);
    return p != nullptr ? p->priority : 0;
}

void
Kernel::engineEnqueue(Thread &t, const EngDeferred &d)
{
    auto it = std::upper_bound(
        t.engDeferred.begin(), t.engDeferred.end(), d,
        [](const EngDeferred &a, const EngDeferred &b) {
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq < b.seq;
        });
    t.engDeferred.insert(it, d);
}

bool
Kernel::deliverViaEngine(ThreadId id, unsigned vector,
                         IntrSource source, bool booked)
{
    Thread &t = thread(id);
    if (t.handlerCosts.empty())
        return false;
    auto it = t.handlerCosts.find(vector);
    if (it == t.handlerCosts.end())
        return false;

    emit(IntrStage::Accept, source, id, vector);

    EngDeferred d;
    d.vector = vector;
    d.prio = enginePriority(t, vector);
    d.cost = it->second;
    d.source = source;
    d.booked = booked;
    d.seq = engSeq_++;
    engineEnqueue(t, d);
    engineArrival(id, vector);
    return true;
}

void
Kernel::engineArrival(ThreadId id, unsigned vector)
{
    Thread &t = thread(id);
    if (t.engState == EngState::Idle) {
        engineStartFrame(id);
        return;
    }
    // Preempt only a *running* frame: save/restore windows are
    // non-preemptible sections (they bound the blocking term in the
    // analytical worst case).
    if (t.engState == EngState::Running &&
        !t.engDeferred.empty() && !t.engFrames.empty() &&
        t.engDeferred.front().prio > t.engFrames.back().prio) {
        enginePreempt(id);
        return;
    }
    note(KernelStat::PreemptDeferred, vector);
}

void
Kernel::enginePreempt(ThreadId id)
{
    Thread &t = thread(id);
    assert(t.engState == EngState::Running && !t.engFrames.empty());
    Cycles now = sim_.now();

    // Bank the running frame's unfinished cycles.
    EngFrame &f = t.engFrames.back();
    f.remaining = t.engStateEnd > now ? t.engStateEnd - now : 0;
    note(KernelStat::PreemptPreemptions, f.vector);

    Cycles save_len = costs_.preemptSave;
    if (fault_ != nullptr) {
        auto d = fault_->decide(fault::Site::PreemptSave);
        if (d.action == fault::Action::Drop) {
            // The frame spill is lost: the preempted continuation
            // vanishes with it. With recovery on, the kernel replays
            // the continuation after the backoff (as an
            // alreadyStarted arrival — the handler already ran its
            // prefix); with recovery off, the frame is stranded and
            // the ledger's conservation check flags the loss.
            EngFrame lost = t.engFrames.back();
            t.engFrames.pop_back();
            note(KernelStat::PreemptSaveDropped, lost.vector);
            if (recoveryEnabled_) {
                std::uint64_t seq = engSeq_++;
                sim_.queue().scheduleAfter(
                    recoveryBackoff_, [this, id, lost, seq] {
                        Thread &t2 = thread(id);
                        EngDeferred r;
                        r.vector = lost.vector;
                        r.prio = lost.prio;
                        r.cost = lost.remaining;
                        r.source = lost.source;
                        r.booked = lost.booked;
                        r.seq = seq;
                        r.alreadyStarted = true;
                        engineEnqueue(t2, r);
                        note(KernelStat::PreemptResumeReplayed, lost.vector);
                        if (t2.engState == EngState::Idle)
                            engineStartFrame(id);
                    });
            }
        } else if (d.action == fault::Action::Duplicate) {
            // The spill microcode runs twice (torn save retried):
            // the nested delivery pays a doubled save window.
            save_len = 2 * costs_.preemptSave;
            note(KernelStat::PreemptDoubleSave, f.vector);
        }
    }

    t.engState = EngState::Saving;
    t.engStateEnd = now + save_len;
    scheduleEngineAdvance(id);
}

void
Kernel::engineStartFrame(ThreadId id)
{
    Thread &t = thread(id);
    assert(!t.engDeferred.empty());
    EngDeferred d = t.engDeferred.front();
    t.engDeferred.erase(t.engDeferred.begin());

    EngFrame f;
    f.vector = d.vector;
    f.prio = d.prio;
    f.source = d.source;
    f.booked = d.booked;
    f.remaining = 0;
    t.engFrames.push_back(f);
    t.engState = EngState::Running;
    t.engStateEnd = sim_.now() + d.cost;
    scheduleEngineAdvance(id);

    if (!d.alreadyStarted) {
        emit(IntrStage::Deliver, d.source, id, d.vector);
        if (t.handler)
            t.handler(d.vector);
    }
}

void
Kernel::scheduleEngineAdvance(ThreadId id)
{
    Thread &t = thread(id);
    std::uint64_t gen = ++t.engGen;
    Cycles now = sim_.now();
    Cycles delay = t.engStateEnd > now ? t.engStateEnd - now : 0;
    sim_.queue().scheduleAfter(delay == 0 ? 1 : delay,
                               [this, id, gen] {
                                   engineAdvance(id, gen);
                               });
}

void
Kernel::engineAdvance(ThreadId id, std::uint64_t gen)
{
    Thread &t = thread(id);
    if (gen != t.engGen)
        return;  // superseded by a preemption or replay

    switch (t.engState) {
      case EngState::Idle:
        return;
      case EngState::Saving:
        // Spill done: the highest-priority arrival takes the core.
        engineStartFrame(id);
        return;
      case EngState::Running: {
        assert(!t.engFrames.empty());
        EngFrame done = t.engFrames.back();
        t.engFrames.pop_back();
        if (done.booked)
            emit(IntrStage::Return, done.source, id, done.vector);
        note(KernelStat::PreemptCompletions, done.vector);

        // A strictly-higher-priority arrival beats the resumable
        // frame (no pointless restore + re-save); otherwise resume
        // the preempted frame, or go idle.
        bool start_next = !t.engDeferred.empty() &&
            (t.engFrames.empty() ||
             t.engDeferred.front().prio > t.engFrames.back().prio);
        if (start_next) {
            engineStartFrame(id);
        } else if (!t.engFrames.empty()) {
            t.engState = EngState::Restoring;
            t.engStateEnd = sim_.now() + costs_.preemptRestore;
            scheduleEngineAdvance(id);
            note(KernelStat::PreemptResumes, t.engFrames.back().vector);
        } else {
            t.engState = EngState::Idle;
        }
        return;
      }
      case EngState::Restoring: {
        assert(!t.engFrames.empty());
        t.engState = EngState::Running;
        t.engStateEnd = sim_.now() + t.engFrames.back().remaining;
        scheduleEngineAdvance(id);
        // An arrival that outranks the resumed frame but landed in
        // the restore window preempts the moment the frame is live.
        if (!t.engDeferred.empty() &&
            t.engDeferred.front().prio > t.engFrames.back().prio)
            enginePreempt(id);
        return;
      }
    }
}

void
Kernel::enableKbTimer(ThreadId id, std::uint8_t vector)
{
    Thread &t = thread(id);
    t.timerEnabled = true;
    t.timerVector = vector;
    t.timerSave = KbTimerSave{};
    if (t.running)
        cores_[t.core].timer.configure(true, vector);
}

void
Kernel::disableKbTimer(ThreadId id)
{
    Thread &t = thread(id);
    t.timerEnabled = false;
    if (t.running)
        cores_[t.core].timer.configure(false, 0);
}

bool
Kernel::setTimer(ThreadId id, Cycles cycles, KbTimerMode mode)
{
    Thread &t = thread(id);
    if (!t.timerEnabled)
        return false;
    if (t.running) {
        // Reprogramming cancels an observed-but-undelivered expiry.
        if (cores_[t.core].timerDue)
            abandonTimerDue(t.core);
        return cores_[t.core].timer.setTimer(sim_.now(), cycles, mode);
    }
    if (t.timerDuePosted) {
        t.timerDuePosted = false;
        emit(IntrStage::Abandon, IntrSource::KbTimer, id, t.timerVector);
    }
    // Programming while descheduled updates the saved image.
    t.timerSave.armed = true;
    t.timerSave.mode = mode;
    t.timerSave.vector = t.timerVector;
    if (mode == KbTimerMode::Periodic) {
        t.timerSave.period = cycles;
        t.timerSave.deadline = sim_.now() + cycles;
    } else {
        t.timerSave.period = 0;
        t.timerSave.deadline = cycles;
    }
    return true;
}

void
Kernel::clearTimer(ThreadId id)
{
    Thread &t = thread(id);
    if (t.running) {
        if (cores_[t.core].timerDue)
            abandonTimerDue(t.core);
        cores_[t.core].timer.clearTimer();
    } else {
        t.timerSave.armed = false;
        if (t.timerDuePosted) {
            t.timerDuePosted = false;
            emit(IntrStage::Abandon, IntrSource::KbTimer, id,
                 t.timerVector);
        }
    }
}

KbTimer &
Kernel::coreTimer(CoreId core)
{
    assert(core < cores_.size());
    return cores_[core].timer;
}

bool
Kernel::pollKbTimer(CoreId core_id)
{
    Core &core = cores_[core_id];
    if (fault_ != nullptr) {
        auto d = fault_->decide(fault::Site::KbTimerPoll);
        if (d.action == fault::Action::Spurious) {
            // Phantom expiry: the handler runs although nothing was
            // armed. Out-of-band by design, so no Raise — the ledger
            // only tracks real expiries.
            note(KernelStat::FaultKbTimerSpurious);
            ThreadId running = core.running;
            if (running != kNoThread) {
                emit(IntrStage::Deliver, IntrSource::KbTimer, running,
                     core.timer.vector());
                Thread &t = thread(running);
                if (t.handler)
                    t.handler(core.timer.vector());
            }
        }
    }
    if (!core.timer.expired(sim_.now()))
        return false;

    // First observation of this expiry: account the post once.
    if (!core.timerDue) {
        core.timerDue = true;
        if (core.running != kNoThread)
            emit(IntrStage::Raise, IntrSource::KbTimer, core.running,
                 core.timer.vector());
    }

    if (fault_ != nullptr) {
        auto d = fault_->decide(fault::Site::KbTimerFire);
        if (d.action == fault::Action::Drop) {
            // Misfire: the interrupt is swallowed, but the expiry
            // stays unacknowledged so the next poll — or the
            // restore-missed path on resume — redelivers it late.
            note(KernelStat::FaultKbTimerMisfire);
            core.timerMisfired = true;
            return false;
        }
        if (d.action == fault::Action::Delay) {
            Cycles delta = d.magnitude == 0 ? 1 : d.magnitude;
            note(KernelStat::FaultKbTimerDelayed);
            core.timerMisfired = true;
            sim_.queue().scheduleAfter(delta, [this, core_id] {
                delayedKbTimerFire(core_id);
            });
            return false;
        }
    }

    core.timer.acknowledge();
    deliverKbTimerFired(core_id);
    return true;
}

void
Kernel::delayedKbTimerFire(CoreId core_id)
{
    Core &core = cores_[core_id];
    // The in-flight fire may race a clear/re-arm or a context
    // switch; consumeExpiry only acknowledges a still-live expiry.
    if (!core.timer.consumeExpiry(sim_.now())) {
        note(KernelStat::RecoveryKbTimerCancelled, core.timer.vector());
        if (core.timerDue)
            abandonTimerDue(core_id);
        return;
    }
    deliverKbTimerFired(core_id);
}

void
Kernel::deliverKbTimerFired(CoreId core_id)
{
    Core &core = cores_[core_id];
    note(KernelStat::KbTimerFired);
    // Only an observed (raised) expiry is accounted by a Return.
    if (core.running != kNoThread)
        deliver(IntrSource::KbTimer, core.running, core.timer.vector(),
                core.timerDue);
    if (core.timerMisfired)
        note(KernelStat::RecoveryKbTimerLate, core.timer.vector());
    core.timerDue = false;
    core.timerMisfired = false;
}

void
Kernel::abandonTimerDue(CoreId core_id)
{
    Core &core = cores_[core_id];
    if (core.running != kNoThread)
        emit(IntrStage::Abandon, IntrSource::KbTimer, core.running,
             core.timer.vector());
    core.timerDue = false;
    core.timerMisfired = false;
}

int
Kernel::registerForwarding(ThreadId id, CoreId core_id)
{
    assert(core_id < cores_.size());
    Core &core = cores_[core_id];
    if (core.nextFwdVector == 0)
        return -1;  // 256-vector space exhausted (§4.5 limitation)
    unsigned vector = core.nextFwdVector++;

    Thread &t = thread(id);
    core.fwd.enableVector(vector);
    t.fwdMask.set(vector);
    if (t.running && t.core == core_id)
        core.fwd.setActiveMask(t.fwdMask);
    return static_cast<int>(vector);
}

DeliveryPath
Kernel::deviceInterrupt(CoreId core_id, unsigned vector)
{
    assert(core_id < cores_.size());
    Core &core = cores_[core_id];
    ForwardOutcome outcome = core.fwd.onInterrupt(vector);

    switch (outcome) {
      case ForwardOutcome::FastPath: {
        unsigned v = core.fwd.takeHighestUirr();
        ThreadId running = core.running;
        assert(running != kNoThread);
        Thread &t = thread(running);
        emit(IntrStage::Raise, IntrSource::Forwarded, running, v);
        if (fault_ != nullptr) {
            auto d = fault_->decide(fault::Site::ForwardDispatch);
            if (d.action == fault::Action::Drop) {
                // Fast-path delivery lost: degrade to slow-path
                // semantics by parking in the DUPID; the resume
                // drain delivers it.
                note(KernelStat::FaultForwardDropped);
                t.dupid.post(v);
                note(KernelStat::RecoveryForwardParked, v);
                return DeliveryPath::Deferred;
            }
            if (d.action == fault::Action::Delay) {
                Cycles delta = d.magnitude == 0 ? 1 : d.magnitude;
                note(KernelStat::FaultForwardDelayed);
                sim_.queue().scheduleAfter(
                    delta, [this, core_id, v, running] {
                        delayedForwardDeliver(core_id, v, running);
                    });
                return DeliveryPath::Deferred;
            }
        }
        deliver(IntrSource::Forwarded, running, v);
        note(KernelStat::ForwardFast);
        return DeliveryPath::Fast;
      }
      case ForwardOutcome::SlowPath: {
        unsigned v = core.fwd.takeHighestUirr();
        ThreadId owner = forwardOwner(core_id, v);
        if (owner != kNoThread) {
            Thread &ot = thread(owner);
            // NEXT_ONLY skips DUPID parking: a forwarded interrupt
            // toward a descheduled receiver is missed by design.
            const DeliveryPolicy *p = policyFor(ot, v);
            if (p != nullptr &&
                p->behavior == DeliveryBehavior::NextOnly) {
                emit(IntrStage::Raise, IntrSource::Forwarded, owner, v);
                emit(IntrStage::Drop, IntrSource::Forwarded, owner, v);
                note(KernelStat::ModerationMissed, v);
                return DeliveryPath::Suppressed;
            }
            emit(IntrStage::Raise, IntrSource::Forwarded, owner, v);
            ot.dupid.post(v);
        }
        note(KernelStat::ForwardSlow);
        return DeliveryPath::Deferred;
      }
      case ForwardOutcome::NotForwarded:
        return DeliveryPath::Deferred;
    }
    return DeliveryPath::Deferred;
}

void
Kernel::delayedForwardDeliver(CoreId core_id, unsigned vector,
                              ThreadId posted_to)
{
    Core &core = cores_[core_id];
    if (core.running == posted_to) {
        deliver(IntrSource::Forwarded, posted_to, vector);
        note(KernelStat::RecoveryForwardDelayed, vector);
        return;
    }
    // Receiver context-switched while the interrupt was in flight:
    // fall back to DUPID parking; the resume drain delivers it.
    thread(posted_to).dupid.post(vector);
    note(KernelStat::RecoveryForwardParked, vector);
}

ThreadId
Kernel::forwardOwner(CoreId core_id, unsigned vector) const
{
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        const Thread &t = threads_[i];
        if (t.exists && t.fwdMask.test(vector) &&
            (t.running ? t.core == core_id : true))
            return static_cast<ThreadId>(i);
    }
    return kNoThread;
}

int
Kernel::setInterval(ThreadId id, Cycles interval, unsigned signo)
{
    if (interval == 0)
        return -1;
    thread(id);  // validate
    IntervalTimer timer;
    timer.thread = id;
    timer.signo = signo;
    int timer_id = static_cast<int>(intervalTimers_.size());
    timer.event = std::make_unique<PeriodicEvent>(
        sim_.queue(), interval, [this, id, signo] {
            Thread &t = thread(id);
            emit(IntrStage::Raise, IntrSource::Signal, id, signo);
            if (t.running) {
                deliver(IntrSource::Signal, id, signo);
                ++signalsDelivered_;
                note(KernelStat::SignalsDelivered);
            } else {
                // SIGALRM semantics: firings while descheduled
                // collapse into one pending signal.
                t.pendingSignal = true;
                t.pendingSigno = signo;
            }
            return true;
        });
    timer.event->startAfterPeriod();
    intervalTimers_.push_back(std::move(timer));
    return timer_id;
}

void
Kernel::cancelInterval(int timer_id)
{
    if (timer_id < 0 ||
        static_cast<std::size_t>(timer_id) >= intervalTimers_.size())
        return;
    IntervalTimer &t = intervalTimers_[
        static_cast<std::size_t>(timer_id)];
    if (t.event)
        t.event->stop();
}

void
Kernel::attachMetrics(MetricsRegistry &registry)
{
    for (std::size_t i = 0; i < kNumKernelStats; ++i)
        stats_[i] = &registry.counter(kKernelStats[i].name);
}

void
Kernel::noteRollback(std::uint64_t eventsReplayed)
{
    note(KernelStat::RecoveryRollbackRetries);
    note(KernelStat::RecoveryRollbackEventsReplayed, kNoVector,
         eventsReplayed);
}

unsigned
Kernel::pendingReposts(ThreadId id) const
{
    const Thread &t = thread(id);
    unsigned n = 0;
    if (t.hasUpid) {
        std::uint64_t pir = t.upid.pir();
        for (unsigned v = 0; v < kNumUserVectors; ++v)
            n += (pir >> v) & 1;
    }
    n += t.dupid.pending().count();
    return n;
}

} // namespace xui
