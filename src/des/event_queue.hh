/**
 * @file
 * Deterministic discrete-event queue.
 *
 * One indexed binary min-heap of (when, seq) keys. A heap entry
 * holds its key inline beside its pool slot, so ordering never reads
 * the pool. The pool is split by temperature: a vector of 8-byte
 * slots (generation plus heap position, or free-list link) that
 * every sift step writes, and a deque of callbacks in small-buffer
 * storage that only schedule, cancel and fire touch. Slots are
 * free-listed and reused in place, so there is no per-event heap
 * allocation.
 *
 * Handles are generation-checked. Cancel frees the slot, bumps its
 * generation and removes the event's heap entry at once (the hole
 * walks down to a leaf and the last entry sifts up into it, as a
 * pop does), so the heap always holds exactly the pending events. A
 * repeated cancel, a fired handle and a handle naming a free slot
 * all return false.
 *
 * Events scheduled for the same cycle fire in scheduling order: a
 * monotonically increasing sequence number is assigned at schedule
 * time and breaks every tie in the key, which makes whole-system
 * simulations reproducible.
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

/** Indexed binary-heap event queue with stable same-cycle ordering. */
class EventQueue
{
  public:
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
     * Cancel a previously scheduled event: its slot is reclaimed and
     * its heap entry removed immediately.
     * @return true if the event was still pending (fired, cancelled,
     *         invalid and never-issued handles all return false).
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
     * (kNoPending when the queue is empty): the heap's top.
     */
    Cycles
    peekNextTime() const
    {
        return heap_.empty() ? kNoPending : heap_.front().when;
    }

    /** One pending event, as seen by diagnostics. */
    struct PendingEvent
    {
        Cycles when;
        std::uint64_t seq;
    };

    /**
     * Snapshot of pending events sorted by (when, seq), truncated to
     * `max` entries (0 = all). O(heap) — diagnostics only (stuck
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
    std::size_t poolSize() const { return slots_.size(); }

    /**
     * Heap entries. Counted apart from pending(), which schedule,
     * cancel and fire keep on their own; the two agree because
     * cancel removes its entry at once.
     */
    std::size_t heapSize() const { return heap_.size(); }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Hot half of a pool slot; the callback is in cbs_. */
    struct Slot
    {
        std::uint32_t gen = 1;
        /** Heap position while live, free-list link while free. */
        std::uint32_t pos = kNil;
    };

    /** Heap key with the slot it orders. */
    struct Entry
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;

        friend bool
        operator<(const Entry &a, const Entry &b)
        {
            return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        }
    };

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | idx;
    }

    EventId scheduleImpl(Cycles when, SmallCallback cb);
    std::uint32_t allocEvent();
    void freeEvent(std::uint32_t idx);
    /** Store x at heap position pos and record pos in its slot. */
    void
    place(std::size_t pos, const Entry &x)
    {
        heap_[pos] = x;
        slots_[x.slot].pos = static_cast<std::uint32_t>(pos);
    }
    /** Fill the hole with x, moving x toward the root. */
    void siftUp(std::size_t hole, const Entry &x);
    /** Remove the heap entry at pos. */
    void removeAt(std::size_t pos);

    std::vector<Slot> slots_;
    /** Callbacks by slot. A deque: growing it never copies, so l3fwd's
     * ~23k pending events do not pay a doubling's peak memory. */
    std::deque<SmallCallback> cbs_;
    std::uint32_t freeHead_ = kNil;
    /** Min-heap on (when, seq). */
    std::vector<Entry> heap_;

    FireHook fireHook_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t live_ = 0;
};

} // namespace xui

#endif // XUI_DES_EVENT_QUEUE_HH
