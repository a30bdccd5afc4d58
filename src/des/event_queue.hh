/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Internally a three-level hierarchical calendar (timing wheel):
 * level 0 resolves single cycles over a 1024-cycle horizon, level 1
 * 1024-cycle blocks over ~1M cycles, level 2 ~1M-cycle blocks over
 * ~1G cycles, plus an unsorted overflow list beyond that. Events
 * live in a free-listed pool (reused in place, no per-event heap
 * allocation) and carry their callback in small-buffer storage;
 * bucket membership is an intrusive doubly-linked list so cancel is
 * O(1) and reclaims the slot immediately. Handles are
 * generation-checked: a reused slot invalidates stale ids, so
 * cancelling a fired or already-cancelled event returns false
 * instead of corrupting the pending count (which the old lazy
 * cancellation scheme got wrong).
 *
 * Events scheduled for the same cycle fire in scheduling order: a
 * monotonically increasing sequence number is assigned at schedule
 * time and the current cycle's bucket is drained in seq order,
 * which makes whole-system simulations reproducible regardless of
 * wheel internals.
 */

#ifndef XUI_DES_EVENT_QUEUE_HH
#define XUI_DES_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/time.hh"

namespace xui
{

/** Opaque handle identifying a scheduled event, used to cancel it. */
using EventId = std::uint64_t;

/** Sentinel returned when no event exists. */
constexpr EventId kInvalidEventId = 0;

/**
 * Move-only callable with small-buffer storage: callables up to
 * kInlineBytes live inline in the event pool slot (reused across
 * events, never touching the allocator); larger ones fall back to
 * the heap.
 */
class SmallCallback
{
  public:
    static constexpr std::size_t kInlineBytes = 48;

    SmallCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, SmallCallback>>>
    SmallCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_))
                Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) =
                new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    SmallCallback(SmallCallback &&o) noexcept : ops_(o.ops_)
    {
        if (ops_)
            ops_->relocate(o.buf_, buf_);
        o.ops_ = nullptr;
    }

    SmallCallback &
    operator=(SmallCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_)
                ops_->relocate(o.buf_, buf_);
            o.ops_ = nullptr;
        }
        return *this;
    }

    ~SmallCallback() { reset(); }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*destroy)(void *);
        /** Move the callable from src storage to dst storage. */
        void (*relocate)(void *src, void *dst);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        [](void *p) {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
        [](void *src, void *dst) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p) { (**reinterpret_cast<Fn **>(p))(); },
        [](void *p) { delete *reinterpret_cast<Fn **>(p); },
        [](void *src, void *dst) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
    };

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/** Hierarchical calendar queue with stable same-cycle ordering. */
class EventQueue
{
  public:
    /** Compatibility alias; any callable converts via the template
     * overloads below without a std::function round-trip. */
    using Callback = std::function<void()>;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time; advances as events are processed. */
    Cycles now() const { return now_; }

    /**
     * Schedule a callback at an absolute time.
     * @pre when >= now()
     * @return handle usable with cancel().
     */
    template <typename F>
    EventId
    scheduleAt(Cycles when, F &&cb)
    {
        return scheduleImpl(when, SmallCallback(std::forward<F>(cb)));
    }

    /** Schedule a callback delta cycles from now. */
    template <typename F>
    EventId
    scheduleAfter(Cycles delta, F &&cb)
    {
        return scheduleImpl(now_ + delta,
                            SmallCallback(std::forward<F>(cb)));
    }

    /**
     * Cancel a previously scheduled event: O(1) unlink, slot
     * reclaimed immediately.
     * @return true if the event was still pending (stale, fired,
     *         cancelled, and invalid handles all return false).
     */
    bool cancel(EventId id);

    /** Number of live pending events. */
    std::size_t pending() const { return live_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /**
     * Observer invoked just before each event fires, with the
     * event's id and fire time. Used by the verification subsystem
     * to fingerprint the firing order; nullptr (default) disables
     * it. The hook must not schedule or cancel events.
     */
    using FireHook = std::function<void(EventId, Cycles)>;
    void setFireHook(FireHook hook) { fireHook_ = std::move(hook); }

    /** Total events fired since construction. */
    std::uint64_t firedCount() const { return fired_; }

    /** Sentinel returned by peekNextTime() when nothing is pending. */
    static constexpr Cycles kNoPending = ~Cycles(0);

    /**
     * Exact fire time of the next pending event without firing it
     * (kNoPending when the queue is empty). Non-const: maintains the
     * overflow-min cache and prunes cancelled entries from the
     * active same-cycle drain list, neither of which is observable
     * through the firing order.
     */
    Cycles peekNextTime();

    /** One pending event, as seen by diagnostics. */
    struct PendingEvent
    {
        Cycles when;
        std::uint64_t seq;
    };

    /**
     * Snapshot of pending events sorted by (when, seq), truncated to
     * `max` entries (0 = all). O(pool) — diagnostics only (stuck
     * chaos cell reports), never a hot path.
     */
    std::vector<PendingEvent> pendingSnapshot(std::size_t max = 0)
        const;

    /**
     * Pop and run the next event.
     * @return false when the queue is empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains or the time limit is passed.
     * Events scheduled exactly at the limit still run; the simulated
     * clock never exceeds limit on return unless events at `limit`
     * scheduled more work in the past (which is forbidden).
     * @return number of events executed.
     */
    std::uint64_t runUntil(Cycles limit);

    /** Run every remaining event (careful with self-rescheduling). */
    std::uint64_t runAll();

    /**
     * Pool slots currently allocated (free or live). Bounded by the
     * peak number of simultaneously pending events: cancel and fire
     * both reclaim, so schedule/cancel churn cannot grow it
     * (regression guard for the old lazy-cancel leak).
     */
    std::size_t poolSize() const { return pool_.size(); }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr Cycles kNoEvent = ~Cycles(0);

    static constexpr unsigned kBucketBits = 10;
    static constexpr unsigned kBuckets = 1u << kBucketBits;
    static constexpr unsigned kBucketMask = kBuckets - 1;
    static constexpr unsigned kWords = kBuckets / 64;
    /** Levels 0..2 are wheel levels; 3 is the overflow list. */
    static constexpr unsigned kLevels = 3;
    static constexpr std::uint8_t kOverflow = kLevels;
    static constexpr std::uint8_t kUnlinked = 0xff;

    struct Event
    {
        Cycles when = 0;
        std::uint64_t seq = 0;
        SmallCallback cb;
        std::uint32_t gen = 1;
        std::uint32_t next = kNil;
        std::uint32_t prev = kNil;
        /** Wheel level (0..2), kOverflow, or kUnlinked (free /
         * being fired). */
        std::uint8_t level = kUnlinked;
        std::uint16_t bucket = 0;
    };

    /** Sorted drain list for the current cycle's bucket. */
    struct ScratchRef
    {
        std::uint64_t seq;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | idx;
    }

    EventId scheduleImpl(Cycles when, SmallCallback cb);
    std::uint32_t allocEvent();
    void freeEvent(std::uint32_t idx);
    /** Link into the wheel level/bucket for `when` given now_. */
    void place(std::uint32_t idx);
    void unlink(std::uint32_t idx);
    /** Exact earliest pending fire time (kNoEvent when empty). */
    Cycles nextEventTime();
    /** Min `when` over a bucket chain (kNoEvent when empty). */
    Cycles chainMin(std::uint32_t head) const;
    /** Re-place entries of current L1/L2/overflow buckets after
     * now_ advanced. */
    void cascadeAt(Cycles t);
    /** Build the sorted same-cycle drain list for now_. */
    void buildScratch();
    /** Resolve the next firing event; kNil when empty. Advances
     * now_ to the fire time. */
    std::uint32_t popNext();

    std::deque<Event> pool_;
    std::uint32_t freeHead_ = kNil;

    std::uint32_t heads_[kLevels][kBuckets];
    std::uint64_t bits_[kLevels][kWords];
    std::uint32_t overflowHead_ = kNil;
    Cycles overflowMin_ = kNoEvent;
    bool overflowMinValid_ = true;

    std::vector<ScratchRef> scratch_;
    std::size_t scratchPos_ = 0;
    Cycles scratchWhen_ = kNoEvent;

    FireHook fireHook_;
    Cycles now_;
    std::uint64_t nextSeq_;
    std::uint64_t fired_ = 0;
    std::size_t live_;
};

} // namespace xui

#endif // XUI_DES_EVENT_QUEUE_HH
