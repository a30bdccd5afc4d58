/**
 * @file
 * Property and differential tests for EventQueue. The queue's
 * contract (time order, same-cycle FIFO, cancel semantics,
 * generation-checked handles, bounded pool and heap) is checked
 * three ways:
 *
 *  - randomized differential runs against a trivially correct
 *    (when, seq)-ordered reference model, with delays from single
 *    cycles to beyond 2^30, and an open-loop run that holds 20k
 *    events pending;
 *  - a differential of open-loop arrivals scheduled one by one
 *    against the same arrivals as event series (scheduleSeries),
 *    which must fire identically while the heap holds one event per
 *    series;
 *  - targeted unit tests for the contract edges the lazy-cancel
 *    heaps got wrong (cancel of a fired handle, or of a free slot
 *    under a generation never issued, corrupted the live count;
 *    cancelled events kept their storage or heap entry until their
 *    fire time);
 *  - a pinned DES-tier golden workload whose firing digest was
 *    captured while both the old and the new implementation were
 *    built side by side and verified to agree event for event.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/event_queue.hh"
#include "des/simulation.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"

using namespace xui;

namespace
{

/**
 * Reference model: pending events keyed by (when, seq). A correct
 * queue fires exactly the keys <= limit, in key order.
 */
class ReferenceModel
{
  public:
    void
    schedule(Cycles when, std::uint64_t seq, std::uint64_t tag)
    {
        pending_.emplace(std::make_pair(when, seq), tag);
    }

    /** @return true when (when, seq) was still pending. */
    bool
    cancel(Cycles when, std::uint64_t seq)
    {
        return pending_.erase(std::make_pair(when, seq)) > 0;
    }

    /** Pop every tag with when <= limit, in firing order. */
    void
    drainUntil(Cycles limit, std::vector<std::uint64_t> &out)
    {
        auto it = pending_.begin();
        while (it != pending_.end() && it->first.first <= limit) {
            out.push_back(it->second);
            it = pending_.erase(it);
        }
    }

    std::size_t size() const { return pending_.size(); }

    Cycles
    maxWhen() const
    {
        return pending_.empty() ? 0 : pending_.rbegin()->first.first;
    }

  private:
    std::map<std::pair<Cycles, std::uint64_t>, std::uint64_t>
        pending_;
};

/** One live handle in the differential run. */
struct LiveRef
{
    EventId id;
    Cycles when;
    std::uint64_t seq;
};

/**
 * Drive one randomized schedule/cancel/run workload against the
 * model. Delays span single cycles, 1K..16K, up to 4M and beyond
 * 2^30, so near and very far keys are ordered together as time
 * advances.
 */
void
runDifferential(std::uint64_t seed)
{
    EventQueue q;
    ReferenceModel model;
    Rng rng(seed);

    std::vector<std::uint64_t> fired;
    std::vector<std::uint64_t> expected;
    std::vector<LiveRef> live;
    std::uint64_t nextTag = 1;
    std::uint64_t nextSeq = 0;

    for (int op = 0; op < 400; ++op) {
        std::uint64_t pick = rng.nextBounded(100);
        if (pick < 60) {
            // Schedule with a wide delay distribution.
            Cycles delay;
            std::uint64_t span = rng.nextBounded(100);
            if (span < 50)
                delay = 1 + rng.nextBounded(600);
            else if (span < 80)
                delay = 1 + rng.nextBounded(Cycles(1) << 14);
            else if (span < 95)
                delay = 1 + rng.nextBounded(Cycles(1) << 22);
            else
                delay = (Cycles(1) << 30) + rng.nextBounded(1 << 12);
            Cycles when = q.now() + delay;
            std::uint64_t tag = nextTag++;
            EventId id = q.scheduleAfter(
                delay, [&fired, tag] { fired.push_back(tag); });
            ASSERT_NE(id, kInvalidEventId);
            model.schedule(when, nextSeq, tag);
            live.push_back(LiveRef{id, when, nextSeq});
            ++nextSeq;
        } else if (pick < 80 && !live.empty()) {
            // Cancel a random previously returned handle. The model
            // knows whether it already fired (or was cancelled), so
            // the return value is fully predicted.
            std::size_t i = rng.nextBounded(live.size());
            LiveRef ref = live[i];
            live[i] = live.back();
            live.pop_back();
            bool expect = model.cancel(ref.when, ref.seq);
            EXPECT_EQ(q.cancel(ref.id), expect)
                << "seed " << seed << " op " << op;
            // A second cancel of the same handle is always false.
            EXPECT_FALSE(q.cancel(ref.id));
        } else {
            Cycles limit = q.now() + rng.nextBounded(2000);
            model.drainUntil(limit, expected);
            q.runUntil(limit);
            EXPECT_EQ(q.now(), limit);
            ASSERT_EQ(fired, expected)
                << "seed " << seed << " op " << op;
        }
        ASSERT_EQ(q.pending(), model.size());
        ASSERT_EQ(q.empty(), model.size() == 0);
    }

    // Drain everything, including the events 2^30 cycles out.
    Cycles end = model.maxWhen();
    model.drainUntil(end, expected);
    q.runUntil(end);
    EXPECT_EQ(fired, expected) << "seed " << seed;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.firedCount(), fired.size());
}

/**
 * Open-loop differential run: the shape of the l3fwd and KV
 * workloads, which schedule every arrival before the first drain.
 * 24k events land in a 4k-cycle window (about six ties per cycle),
 * a tenth are cancelled, and the queue is then drained in random
 * slices while each slice schedules and cancels more work, some of
 * it for the cycle the clock has just reached.
 */
void
runOpenLoop(std::uint64_t seed)
{
    EventQueue q;
    ReferenceModel model;
    Rng rng(seed);

    std::vector<std::uint64_t> fired;
    std::vector<std::uint64_t> expected;
    std::vector<LiveRef> live;
    std::uint64_t nextTag = 1;
    std::uint64_t nextSeq = 0;

    auto schedule = [&](Cycles when) {
        std::uint64_t tag = nextTag++;
        EventId id = q.scheduleAt(
            when, [&fired, tag] { fired.push_back(tag); });
        ASSERT_NE(id, kInvalidEventId);
        model.schedule(when, nextSeq, tag);
        live.push_back(LiveRef{id, when, nextSeq});
        ++nextSeq;
    };
    auto cancelRandom = [&] {
        std::size_t i = rng.nextBounded(live.size());
        LiveRef ref = live[i];
        live[i] = live.back();
        live.pop_back();
        EXPECT_EQ(q.cancel(ref.id), model.cancel(ref.when, ref.seq))
            << "seed " << seed;
    };

    for (int i = 0; i < 24'000; ++i)
        schedule(rng.nextBounded(4'000));
    for (int i = 0; i < 2'400; ++i)
        cancelRandom();
    ASSERT_EQ(q.pending(), model.size());

    for (int slice = 0; model.size() > 0; ++slice) {
        Cycles limit = q.now() + rng.nextBounded(64);
        model.drainUntil(limit, expected);
        q.runUntil(limit);
        ASSERT_EQ(fired, expected) << "seed " << seed << " slice "
                                   << slice;
        if (slice < 400) {
            unsigned adds = static_cast<unsigned>(rng.nextBounded(40));
            for (unsigned i = 0; i < adds; ++i)
                schedule(q.now() + rng.nextBounded(3'000));
            for (unsigned i = 0; i < adds / 10 && !live.empty(); ++i)
                cancelRandom();
        }
        ASSERT_EQ(q.pending(), model.size());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.firedCount(), fired.size());
}

/** (tag, fire time) of every event fired, plus cancel outcomes. */
using FireLog = std::vector<std::pair<std::uint64_t, Cycles>>;

/** Tag of series s's event k in a FireLog. */
constexpr std::uint64_t
seriesTag(std::size_t s, std::size_t k)
{
    return (std::uint64_t{s + 1} << 32) | k;
}

/** FireLog tags of a cancel that hit and one that missed. */
constexpr std::uint64_t kCancelHit = 0xC1, kCancelMiss = 0xC0;

/**
 * One seeded open-loop workload: three arrival streams with many
 * same-cycle ties, among 300 other events scheduled before them and
 * 300 after (lower and higher seq at the same cycles). Handlers
 * schedule more work, at delay 0 among others, and cancel random
 * other events; the queue drains in random slices with schedules
 * and cancels between them. `series` schedules each stream with
 * scheduleSeries, else with one scheduleAt per arrival. Every random
 * choice is drawn in firing order, so the two ways must log the
 * same bytes. In series mode the heap must hold at most one event
 * per unfinished stream besides the other pending events.
 */
FireLog
runArrivalStreams(std::uint64_t seed, bool series)
{
    constexpr std::size_t kStreams = 3;
    EventQueue q;
    Rng rng(seed);
    FireLog log;
    std::vector<EventId> handles;
    std::size_t others = 0;
    std::size_t openStreams = kStreams;

    auto checkHeap = [&] {
        if (series) {
            EXPECT_LE(q.heapSize(), openStreams + others)
                << "seed " << seed;
        }
    };
    std::function<void(Cycles)> scheduleOther = [&](Cycles when) {
        const std::uint64_t tag = handles.size();
        ++others;
        handles.push_back(q.scheduleAt(when, [&, tag] {
            --others;
            log.emplace_back(tag, q.now());
            if (rng.nextBounded(10) == 0)
                scheduleOther(q.now() + rng.nextBounded(20));
            checkHeap();
        }));
    };
    auto cancelRandom = [&] {
        const bool hit =
            q.cancel(handles[rng.nextBounded(handles.size())]);
        others -= hit;
        log.emplace_back(hit ? kCancelHit : kCancelMiss, q.now());
    };

    // Arrival times: nondecreasing, a quarter of steps zero.
    std::vector<std::vector<Cycles>> times(kStreams);
    for (auto &t : times) {
        Cycles at = rng.nextBounded(50);
        for (std::size_t k = 500 + rng.nextBounded(1500); k > 0; --k) {
            t.push_back(at);
            at += rng.nextBounded(4) == 0 ? 0 : rng.nextBounded(8);
        }
    }

    for (int i = 0; i < 300; ++i)
        scheduleOther(rng.nextBounded(3'000));
    for (std::size_t s = 0; s < kStreams; ++s) {
        const std::vector<Cycles> &t = times[s];
        auto fire = [&, s](std::size_t k) {
            log.emplace_back(seriesTag(s, k), q.now());
            if (k + 1 == t.size())
                --openStreams;
            switch (rng.nextBounded(8)) {
              case 0:
              case 1:
                scheduleOther(q.now());
                break;
              case 2:
                scheduleOther(q.now() + rng.nextBounded(50));
                break;
              case 3:
                cancelRandom();
                break;
            }
            checkHeap();
        };
        if (series) {
            q.scheduleSeries(
                t.size(), [&t](std::size_t k) { return t[k]; }, fire);
        } else {
            for (std::size_t k = 0; k < t.size(); ++k)
                q.scheduleAt(t[k], [fire, k] { fire(k); });
        }
    }
    for (int i = 0; i < 300; ++i)
        scheduleOther(rng.nextBounded(3'000));
    checkHeap();

    while (!q.empty()) {
        q.runUntil(q.now() + rng.nextBounded(64));
        for (std::uint64_t i = rng.nextBounded(4); i > 0; --i)
            scheduleOther(q.now() + rng.nextBounded(100));
        if (rng.nextBounded(3) == 0)
            cancelRandom();
        checkHeap();
    }
    EXPECT_EQ(openStreams, 0u);
    EXPECT_EQ(others, 0u);
    return log;
}

} // namespace

TEST(EventQueueProperties, SeriesFiresAsScheduledOneByOne)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
        const FireLog eager = runArrivalStreams(seed, false);
        const FireLog series = runArrivalStreams(seed, true);
        ASSERT_GT(eager.size(), 3'000u);
        ASSERT_EQ(series.size(), eager.size()) << "seed " << seed;
        for (std::size_t i = 0; i < eager.size(); ++i)
            ASSERT_EQ(series[i], eager[i])
                << "seed " << seed << " event " << i;
    }
}

TEST(EventQueueProperties, SeriesTiesFollowReservedKeys)
{
    // Keys: a (10, 0), series (10, 1) (10, 2) (20, 3), b (10, 4);
    // the first series handler adds c at (10, 5).
    EventQueue q;
    std::vector<std::string> order;
    q.scheduleAt(10, [&] { order.push_back("a"); });
    const Cycles t[] = {10, 10, 20};
    q.scheduleSeries(
        3, [&t](std::size_t k) { return t[k]; },
        [&](std::size_t k) {
            order.push_back("s" + std::to_string(k));
            if (k == 0)
                q.scheduleAfter(0, [&] { order.push_back("c"); });
        });
    q.scheduleAt(10, [&] { order.push_back("b"); });
    EXPECT_EQ(q.pending(), 3u) << "one series event in the heap";
    q.runAll();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "s0", "s1", "b",
                                               "c", "s2"}));
    EXPECT_EQ(q.firedCount(), 6u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperties, SeriesEventsStayInline)
{
    // The refill callback is a pointer and an index whatever the
    // series captures, so no arrival allocates.
    std::array<std::uint64_t, 8> big{};
    int fired = 0;
    auto when = [](std::size_t k) { return Cycles(k); };
    auto fire = [big, &fired](std::size_t) { ++fired; };
    static_assert(sizeof(fire) > SmallCallback::kInlineBytes);
    static_assert(SmallCallback::kFitsInline<
                  EventQueue::SeriesCallback<decltype(when),
                                             decltype(fire)>>);

    EventQueue q;
    q.scheduleSeries(0, when, fire);
    EXPECT_TRUE(q.empty()) << "an empty series schedules nothing";
    q.scheduleSeries(3, when, fire);
    EXPECT_EQ(q.runAll(), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.poolSize(), 1u) << "each event reuses the slot";
}

TEST(EventQueueProperties, SeriesReleasesItsAccessors)
{
    // A finished series frees what it captured at once; an unfinished
    // one when the queue goes.
    auto token = std::make_shared<int>(0);
    auto add = [&token](EventQueue &q, std::size_t n) {
        q.scheduleSeries(
            n, [token](std::size_t k) { return Cycles(10 * k); },
            [token](std::size_t) { ++*token; });
    };
    {
        EventQueue q;
        add(q, 2);
        add(q, 3);
        EXPECT_EQ(token.use_count(), 5);
        q.runUntil(10);
        EXPECT_EQ(token.use_count(), 3) << "the 2-event series is done";
        EXPECT_EQ(*token, 4);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueProperties, DifferentialAgainstReferenceModel)
{
    for (std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34})
        runDifferential(seed);
}

TEST(EventQueueProperties, OpenLoopDifferentialAgainstReferenceModel)
{
    for (std::uint64_t seed : {1, 2, 3})
        runOpenLoop(seed);
}

TEST(EventQueueProperties, OverflowHorizonFiresInOrder)
{
    // Events 2^30 cycles and more ahead must still fire in
    // (when, seq) order against near ones and each other.
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt((Cycles(1) << 32) + 5, [&] { order.push_back(4); });
    q.scheduleAt((Cycles(1) << 30) + 1, [&] { order.push_back(2); });
    q.scheduleAt((Cycles(1) << 32) + 5, [&] { order.push_back(5); });
    q.scheduleAt(100, [&] { order.push_back(1); });
    q.scheduleAt((Cycles(1) << 31), [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.now(), (Cycles(1) << 32) + 5);
}

TEST(EventQueueProperties, SameCycleFifoSurvivesLevelCascade)
{
    // Ten ties scheduled for a cycle 2M ahead must still fire in
    // scheduling order.
    EventQueue q;
    const Cycles when = (Cycles(1) << 21) + 123;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(when, [&order, i] { order.push_back(i); });
    q.runAll();
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueProperties, ScheduleIntoCycleBeingDrainedIsFifo)
{
    // An event firing at cycle T may schedule more work for cycle T
    // itself; the new work fires after everything already pending
    // at T.
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(50, [&] {
        order.push_back(0);
        q.scheduleAfter(0, [&] { order.push_back(2); });
    });
    q.scheduleAt(50, [&] { order.push_back(1); });
    q.scheduleAt(51, [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.now(), 51u);
}

TEST(EventQueueProperties, CancelOfFiredHandleIsInert)
{
    // Regression for the original lazy-cancel heap: cancelling
    // an already-fired handle returned true and decremented the
    // live count below zero, after which runUntil() on a drained
    // queue failed to advance the clock to the limit.
    EventQueue q;
    int fires = 0;
    EventId a = q.scheduleAt(10, [&] { ++fires; });
    q.scheduleAt(30, [&] { ++fires; });
    q.runUntil(20);
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(100);
    EXPECT_EQ(fires, 2);
    EXPECT_TRUE(q.empty());
    // The clock must reach the limit even after the stale cancel.
    EXPECT_EQ(q.now(), 100u);
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueueProperties, GenerationReuseNeverResurrects)
{
    // Cancelling reclaims the pool slot immediately; the next
    // schedule reuses it under a bumped generation. The stale
    // handle must neither cancel nor otherwise affect the new
    // occupant.
    EventQueue q;
    bool newFired = false;
    EventId a = q.scheduleAt(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.poolSize(), 1u);
    EventId b = q.scheduleAt(20, [&] { newFired = true; });
    EXPECT_EQ(q.poolSize(), 1u) << "cancel must reclaim the slot";
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.pending(), 1u);
    q.runAll();
    EXPECT_TRUE(newFired);
    // Same story for a handle invalidated by firing.
    EXPECT_FALSE(q.cancel(b));
}

TEST(EventQueueProperties, CancelOfUnissuedGenerationIsInert)
{
    // A handle that names a real slot under a generation no
    // schedule has issued must not cancel anything. The lazy-cancel
    // heap accepted one for a free slot: the pending count wrapped
    // to 2^64 - 1 and the next two schedules shared one handle, of
    // which only one event fired.
    EventQueue q;
    EventId a = q.scheduleAt(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    const EventId nextGen = EventId{1} << 32;
    EXPECT_FALSE(q.cancel(a + nextGen)) << "free slot, future gen";
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.heapSize(), 0u);

    int fires = 0;
    EventId b = q.scheduleAt(20, [&] { ++fires; });
    EventId c = q.scheduleAt(30, [&] { ++fires; });
    EXPECT_NE(b, c);
    EXPECT_FALSE(q.cancel(b + nextGen)) << "live slot, future gen";
    EXPECT_EQ(q.pending(), 2u);
    q.runAll();
    EXPECT_EQ(fires, 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperties, PeekNextTimeTracksHeadAcrossLevels)
{
    // peekNextTime() must report the exact next fire time without
    // firing anything, at near and far deltas, and must see
    // through cancellations.
    EventQueue q;
    EXPECT_EQ(q.peekNextTime(), EventQueue::kNoPending);

    EventId far = q.scheduleAt(1u << 22, [] {});
    EXPECT_EQ(q.peekNextTime(), Cycles(1) << 22);
    q.scheduleAt(500, [] {});
    EXPECT_EQ(q.peekNextTime(), 500u);
    EventId near = q.scheduleAt(7, [] {});
    EXPECT_EQ(q.peekNextTime(), 7u);

    // Cancelling the head re-exposes the next-nearest event.
    EXPECT_TRUE(q.cancel(near));
    EXPECT_EQ(q.peekNextTime(), 500u);

    // Peeking fires nothing.
    EXPECT_EQ(q.firedCount(), 0u);
    EXPECT_EQ(q.pending(), 2u);

    q.runUntil(600);
    EXPECT_EQ(q.peekNextTime(), Cycles(1) << 22);
    EXPECT_TRUE(q.cancel(far));
    EXPECT_EQ(q.peekNextTime(), EventQueue::kNoPending);
}

TEST(EventQueueProperties, PeekNextTimeAgreesWithFiringOrder)
{
    // Differential property: before every runOne(), peekNextTime()
    // must equal the time at which that event then actually fires.
    EventQueue q;
    Rng rng(0xfeedu);
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i)
        ids.push_back(q.scheduleAt(
            1 + rng.nextBounded(100000), [] {}));
    for (int i = 0; i < 50; ++i)
        q.cancel(ids[rng.nextBounded(ids.size())]);

    while (true) {
        Cycles peek = q.peekNextTime();
        if (peek == EventQueue::kNoPending)
            break;
        ASSERT_TRUE(q.runOne());
        EXPECT_EQ(q.now(), peek);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperties, PendingSnapshotSortedAndTruncated)
{
    // pendingSnapshot() reports live events sorted by (when, seq),
    // omits cancelled and fired ones, and truncates to `max`.
    EventQueue q;
    EventId dead = q.scheduleAt(40, [] {});
    q.scheduleAt(30, [] {});
    q.scheduleAt(10, [] {});
    q.scheduleAt(30, [] {});  // same cycle: seq breaks the tie
    q.scheduleAt(20, [] {});
    EXPECT_TRUE(q.cancel(dead));

    auto all = q.pendingSnapshot();
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t i = 1; i < all.size(); ++i) {
        EXPECT_TRUE(all[i - 1].when < all[i].when ||
                    (all[i - 1].when == all[i].when &&
                     all[i - 1].seq < all[i].seq))
            << i;
    }
    EXPECT_EQ(all.front().when, 10u);
    EXPECT_EQ(all.back().when, 30u);

    auto top2 = q.pendingSnapshot(2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].when, all[0].when);
    EXPECT_EQ(top2[0].seq, all[0].seq);
    EXPECT_EQ(top2[1].when, all[1].when);
    EXPECT_EQ(top2[1].seq, all[1].seq);

    q.runUntil(15);  // fires the t=10 event
    auto after = q.pendingSnapshot();
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after.front().when, 20u);
}

TEST(EventQueueProperties, PoolBoundedUnderScheduleCancelChurn)
{
    // One million schedule/cancel cycles must not grow the pool:
    // both cancel and fire reclaim slots eagerly. The old lazy
    // cancellation left every cancelled event in the heap until its
    // fire time, so this workload made the heap a million entries
    // deep. Cancel now removes its heap entry at once, so the heap
    // holds exactly the pending events after every operation.
    EventQueue q;
    for (int i = 0; i < 1'000'000; ++i) {
        EventId id = q.scheduleAfter(1 + (i % 777), [] {});
        ASSERT_EQ(q.heapSize(), q.pending());
        ASSERT_TRUE(q.cancel(id));
        ASSERT_EQ(q.heapSize(), q.pending());
    }
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_LE(q.poolSize(), 2u);

    // Batched variant: peak simultaneous pending bounds the pool.
    for (int round = 0; round < 10'000; ++round) {
        EventId ids[8];
        for (int i = 0; i < 8; ++i) {
            ids[i] = q.scheduleAfter(5 + i, [] {});
            ASSERT_EQ(q.heapSize(), q.pending());
        }
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(q.cancel(ids[i]));
            ASSERT_EQ(q.heapSize(), q.pending());
        }
    }
    EXPECT_LE(q.poolSize(), 8u);
    EXPECT_EQ(q.heapSize(), 0u);
}

TEST(EventQueueProperties, LargeCallbackHeapFallback)
{
    // Callables above SmallCallback::kInlineBytes live on the heap;
    // both the fired and the cancelled path must destroy them.
    auto token = std::make_shared<int>(7);
    struct Big
    {
        std::shared_ptr<int> token;
        std::uint64_t pad[8];
        int *out;
        void operator()() const { *out = *token; }
    };
    static_assert(sizeof(Big) > SmallCallback::kInlineBytes);

    int result = 0;
    {
        EventQueue q;
        q.scheduleAt(5, Big{token, {}, &result});
        EventId dropped = q.scheduleAt(6, Big{token, {}, &result});
        EXPECT_EQ(token.use_count(), 3);
        EXPECT_TRUE(q.cancel(dropped));
        EXPECT_EQ(token.use_count(), 2) << "cancel must destroy";
        q.runAll();
        EXPECT_EQ(result, 7);
        EXPECT_EQ(token.use_count(), 1) << "fire must destroy";
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueProperties, DesGoldenWorkloadPinned)
{
    // Golden pin for the DES tier: periodic events on coprime
    // periods, 200 rounds of randomized scheduling with cancels of
    // still-pending handles, drained in randomized slices. The
    // three pinned values were captured with the pre-rewrite
    // binary-heap queue and the calendar queue built side by side
    // from the same translation units; both produced exactly this
    // firing sequence. (The workload deliberately cancels only
    // provably pending handles: the old queue returned true and
    // corrupted its live count when handed a fired handle, so a
    // workload tickling that bug has no meaningful old-queue
    // golden. CancelOfFiredHandleIsInert pins the fixed semantics.)
    Simulation sim;
    Rng rng(0xdecaf);
    Fnv1a digest;

    PeriodicEvent p1(sim.queue(), 7, [&] {
        digest.update(1);
        return true;
    });
    PeriodicEvent p2(sim.queue(), 13, [&] {
        digest.update(2);
        return true;
    });
    PeriodicEvent p3(sim.queue(), 97, [&] {
        digest.update(3);
        return true;
    });
    p1.start(3);
    p2.start(5);
    p3.start(11);

    for (unsigned round = 0; round < 200; ++round) {
        EventId batch[8];
        for (unsigned i = 0; i < 8; ++i) {
            Cycles delay = 1 + rng.nextBounded(300);
            std::uint64_t tag = round * 100 + i;
            batch[i] = sim.queue().scheduleAfter(
                delay, [&digest, tag] { digest.update(tag); });
        }
        // Delays are >= 1 and nothing ran since, so every handle in
        // the batch is still pending here; repeats hit the
        // already-cancelled (false) path.
        for (unsigned i = 0; i < 3; ++i) {
            bool ok = sim.queue().cancel(batch[rng.nextBounded(8)]);
            digest.update(ok ? 0xC1 : 0xC0);
        }
        sim.runUntil(sim.now() + 40 + rng.nextBounded(60));
    }
    p1.stop();
    p2.stop();
    p3.stop();
    sim.runUntil(sim.now() + 1000);

    EXPECT_EQ(sim.queue().firedCount(), 4268u);
    EXPECT_EQ(sim.now(), 14852u);
    EXPECT_EQ(digest.value(), 0x1a51570aa56d1c5bull);
}
