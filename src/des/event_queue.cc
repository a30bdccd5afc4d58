#include "des/event_queue.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() = default;

std::uint32_t
EventQueue::allocEvent()
{
    if (freeHead_ != kNil) {
        std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::freeEvent(std::uint32_t idx)
{
    Event &e = pool_[idx];
    e.cb.reset();
    if (++e.gen == 0)
        e.gen = 1;
    e.next = freeHead_;
    freeHead_ = idx;
}

EventId
EventQueue::scheduleImpl(Cycles when, SmallCallback cb)
{
    assert(when >= now_ && "cannot schedule in the past");
    std::uint32_t idx = allocEvent();
    Event &e = pool_[idx];
    e.cb = std::move(cb);
    heap_.push_back(Entry{when, nextSeq_++, idx, e.gen});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++live_;
    return makeId(idx, e.gen);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return false;
    std::uint32_t idx = static_cast<std::uint32_t>(id);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (idx >= pool_.size() || pool_[idx].gen != gen)
        return false;
    freeEvent(idx);
    assert(live_ > 0);
    --live_;
    // Without this, schedule/cancel churn would grow the heap by one
    // stale entry per pair, however few events are ever pending.
    if (heap_.size() > 2 * live_ + 64) {
        std::erase_if(heap_, [this](const Entry &x) { return stale(x); });
        std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    return true;
}

bool
EventQueue::dropStaleTop()
{
    while (!heap_.empty() && stale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
    }
    return !heap_.empty();
}

bool
EventQueue::runOne()
{
    if (!dropStaleTop())
        return false;
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    assert(top.when >= now_);
    now_ = top.when;
    SmallCallback cb = std::move(pool_[top.slot].cb);
    freeEvent(top.slot);
    --live_;
    ++fired_;
    if (fireHook_)
        fireHook_(makeId(top.slot, top.gen), top.when);
    cb();
    return true;
}

Cycles
EventQueue::peekNextTime()
{
    return dropStaleTop() ? heap_.front().when : kNoPending;
}

std::vector<EventQueue::PendingEvent>
EventQueue::pendingSnapshot(std::size_t max) const
{
    auto less = [](const PendingEvent &a, const PendingEvent &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    };
    std::vector<PendingEvent> out;
    if (max == 0) {
        out.reserve(live_);
        for (const Entry &x : heap_) {
            if (!stale(x))
                out.push_back(PendingEvent{x.when, x.seq});
        }
        std::sort(out.begin(), out.end(), less);
        return out;
    }
    // Bounded top-k: a max-heap of the k smallest (when, seq) seen
    // so far — O(heap log k) time and O(k) memory, so a budget
    // trip against a runaway queue with millions pending reports in
    // microseconds instead of copying and sorting the whole heap
    // (it can trip repeatedly: rollback-retry re-runs the cell).
    out.reserve(max);
    for (const Entry &x : heap_) {
        if (stale(x))
            continue;
        PendingEvent p{x.when, x.seq};
        if (out.size() < max) {
            out.push_back(p);
            std::push_heap(out.begin(), out.end(), less);
        } else if (less(p, out.front())) {
            std::pop_heap(out.begin(), out.end(), less);
            out.back() = p;
            std::push_heap(out.begin(), out.end(), less);
        }
    }
    std::sort_heap(out.begin(), out.end(), less);
    return out;
}

std::uint64_t
EventQueue::runUntil(Cycles limit)
{
    std::uint64_t executed = 0;
    for (;;) {
        Cycles w = peekNextTime();
        if (w == kNoPending || w > limit)
            break;
        if (!runOne())
            break;
        ++executed;
    }
    if (now_ < limit)
        now_ = limit;
    return executed;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t executed = 0;
    while (runOne())
        ++executed;
    return executed;
}

} // namespace xui
