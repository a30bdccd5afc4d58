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
 *
 * An open-loop arrival stream is a series (scheduleSeries): its n
 * keys are reserved at once, but only its earliest unfired event is
 * in the heap, so the heap stays as shallow as the live work.
 */

#ifndef XUI_DES_EVENT_QUEUE_HH
#define XUI_DES_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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

    /** Callable type Fn is stored inline, without an allocation. */
    template <typename Fn>
    static constexpr bool kFitsInline =
        sizeof(Fn) <= kInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    SmallCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, SmallCallback>>>
    SmallCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (kFitsInline<Fn>) {
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
     * Schedule a series of n events known up front: event k fires at
     * when(k) and runs fire(k), for k in [0, n).
     *
     * The series takes n consecutive sequence numbers now, as n
     * scheduleAt() calls made now would, so it fires in exactly their
     * order, ties included: after same-cycle events scheduled before
     * it, before those scheduled later (by its own handlers, say).
     * Only its earliest unfired event is in the heap. When event k
     * fires it first inserts event k + 1 under that event's reserved
     * key, then runs fire(k). Event k + 1's key is larger than event
     * k's, so it is in the heap before it could be the minimum.
     *
     * A series event has no EventId and cannot be cancelled; it
     * counts in pending() and pendingSnapshot() only while in the
     * heap. The queue keeps `when` and `fire` until the last event
     * has fired, or until it is destroyed if that comes first.
     * @pre when(0) >= now() and when() is nondecreasing in k.
     */
    template <typename When, typename Fire>
    void
    scheduleSeries(std::size_t n, When when, Fire fire)
    {
        using S = Series<When, Fire>;
        static_assert(SmallCallback::kFitsInline<SeriesStep<S>>,
                      "a series event must not allocate");
        if (n == 0)
            return;
        auto s = std::make_unique<S>(
            *this, std::move(when), std::move(fire), nextSeq_, n);
        nextSeq_ += n;
        scheduleReserved(s->when(0), s->seq0, SeriesStep<S>{s.get(), 0});
        series_.push_back(std::move(s));
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

    /** Owns one series' accessors until its last event fires. */
    struct SeriesBase
    {
        SeriesBase() = default;
        SeriesBase(const SeriesBase &) = delete;
        SeriesBase &operator=(const SeriesBase &) = delete;
        virtual ~SeriesBase() = default;
    };

    template <typename When, typename Fire>
    struct Series final : SeriesBase
    {
        Series(EventQueue &q_, When when_, Fire fire_,
               std::uint64_t seq0_, std::size_t n_)
            : q(q_), when(std::move(when_)), fire(std::move(fire_)),
              seq0(seq0_), n(n_)
        {}

        EventQueue &q;
        When when;
        Fire fire;
        /** Key sequence number of event 0. */
        std::uint64_t seq0;
        std::size_t n;
    };

    /** A series event's callback: the series and the event's index. */
    template <typename S>
    struct SeriesStep
    {
        S *s;
        std::size_t k;

        void
        operator()() const
        {
            const std::size_t next = k + 1;
            if (next == s->n) {
                s->fire(k);
                s->q.dropSeries(s);
                return;
            }
            s->q.scheduleReserved(s->when(next), s->seq0 + next,
                                  SeriesStep{s, next});
            s->fire(k);
        }
    };

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | idx;
    }

    EventId scheduleImpl(Cycles when, SmallCallback cb);
    /** Schedule under a key sequence number reserved earlier. */
    void scheduleReserved(Cycles when, std::uint64_t seq,
                          SmallCallback cb);
    /** Insert a live event under key (when, seq); @return its slot.
     *  Inlined into both schedule paths, so scheduling pays no extra
     *  call or callback move. */
    [[gnu::always_inline]] std::uint32_t
    insert(Cycles when, std::uint64_t seq, SmallCallback &cb);
    /** Destroy a series whose last event has run. */
    void dropSeries(const SeriesBase *s);
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
    /** Callbacks by slot. A deque: growing it never moves a callback,
     * and a run that holds many events pending never pays a
     * doubling's peak memory. */
    std::deque<SmallCallback> cbs_;
    std::uint32_t freeHead_ = kNil;
    /** Min-heap on (when, seq). */
    std::vector<Entry> heap_;

    std::vector<std::unique_ptr<SeriesBase>> series_;

    FireHook fireHook_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t live_ = 0;

  public:
    /** The callback type of a scheduleSeries(n, when, fire) event. */
    template <typename When, typename Fire>
    using SeriesCallback = SeriesStep<Series<When, Fire>>;
};

} // namespace xui

#endif // XUI_DES_EVENT_QUEUE_HH
