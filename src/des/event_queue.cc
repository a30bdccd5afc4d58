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
        freeHead_ = slots_[idx].pos;
        return idx;
    }
    slots_.emplace_back();
    cbs_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::freeEvent(std::uint32_t idx)
{
    cbs_[idx].reset();
    Slot &s = slots_[idx];
    if (++s.gen == 0)
        s.gen = 1;
    s.pos = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::siftUp(std::size_t hole, const Entry &x)
{
    while (hole > 0) {
        std::size_t parent = (hole - 1) / 2;
        if (!(x < heap_[parent]))
            break;
        place(hole, heap_[parent]);
        hole = parent;
    }
    place(hole, x);
}

void
EventQueue::removeAt(std::size_t pos)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (pos == n)
        return;
    // Walk the hole down to a leaf along the smaller children (one
    // compare per level), then sift the last entry up from there.
    // It comes from another subtree, so it may rise above pos.
    std::size_t hole = pos;
    for (std::size_t child; (child = 2 * hole + 1) < n; hole = child) {
        if (child + 1 < n && heap_[child + 1] < heap_[child])
            ++child;
        place(hole, heap_[child]);
    }
    siftUp(hole, last);
}

inline std::uint32_t
EventQueue::insert(Cycles when, std::uint64_t seq, SmallCallback &cb)
{
    assert(when >= now_ && "cannot schedule in the past");
    std::uint32_t idx = allocEvent();
    cbs_[idx] = std::move(cb);
    heap_.emplace_back();
    siftUp(heap_.size() - 1, Entry{when, seq, idx});
    ++live_;
    return idx;
}

EventId
EventQueue::scheduleImpl(Cycles when, SmallCallback cb)
{
    std::uint32_t idx = insert(when, nextSeq_++, cb);
    return makeId(idx, slots_[idx].gen);
}

void
EventQueue::scheduleReserved(Cycles when, std::uint64_t seq,
                             SmallCallback cb)
{
    insert(when, seq, cb);
}

void
EventQueue::dropSeries(const SeriesBase *s)
{
    auto it = std::find_if(series_.begin(), series_.end(),
                           [s](const auto &p) { return p.get() == s; });
    assert(it != series_.end());
    *it = std::move(series_.back());
    series_.pop_back();
}

bool
EventQueue::cancel(EventId id)
{
    // Generations start at 1 and skip 0, so kInvalidEventId fails
    // the generation check.
    std::uint32_t idx = static_cast<std::uint32_t>(id);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (idx >= slots_.size())
        return false;
    // A free slot's pos is a free-list link, so the generation alone
    // does not prove the slot live: its pos must also name a heap
    // entry that names the slot back.
    const Slot s = slots_[idx];
    if (s.gen != gen || s.pos >= heap_.size() || heap_[s.pos].slot != idx)
        return false;
    freeEvent(idx);
    removeAt(s.pos);
    assert(live_ > 0);
    --live_;
    return true;
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    const Entry top = heap_.front();
    removeAt(0);
    assert(top.when >= now_);
    now_ = top.when;
    SmallCallback cb = std::move(cbs_[top.slot]);
    const std::uint32_t gen = slots_[top.slot].gen;
    freeEvent(top.slot);
    --live_;
    ++fired_;
    if (fireHook_)
        fireHook_(makeId(top.slot, gen), top.when);
    cb();
    return true;
}

std::vector<EventQueue::PendingEvent>
EventQueue::pendingSnapshot(std::size_t max) const
{
    auto less = [](const PendingEvent &a, const PendingEvent &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    };
    std::vector<PendingEvent> out;
    if (max == 0) {
        out.reserve(heap_.size());
        for (const Entry &x : heap_)
            out.push_back(PendingEvent{x.when, x.seq});
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
    while (!heap_.empty() && heap_.front().when <= limit) {
        runOne();
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
