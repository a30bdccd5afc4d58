#include "fault/invariants.hh"

namespace xui::fault
{

namespace
{

const char *
sourceName(IntrSource source)
{
    switch (source) {
      case IntrSource::UserIpi:
        return "uipi";
      case IntrSource::KbTimer:
        return "kbtimer";
      case IntrSource::Forwarded:
        return "forward";
      case IntrSource::Signal:
        return "signal";
    }
    return "?";
}

} // namespace

std::uint64_t
keyFor(IntrSource source, std::uint32_t thread, unsigned vector)
{
    return (static_cast<std::uint64_t>(source) << 48) |
           (static_cast<std::uint64_t>(thread) << 16) |
           (vector & 0xffffu);
}

std::string
describeKey(std::uint64_t key)
{
    auto source = static_cast<IntrSource>((key >> 48) & 0xff);
    std::uint32_t thread =
        static_cast<std::uint32_t>((key >> 16) & 0xffffffffu);
    unsigned vector = static_cast<unsigned>(key & 0xffffu);
    return std::string(sourceName(source)) + " thread " +
           std::to_string(thread) + " vector " +
           std::to_string(vector);
}

void
DeliveryLedger::intrStage(IntrStage stage, std::uint64_t,
                          IntrSource source, std::uint8_t vector,
                          Cycles, unsigned receiver)
{
    std::uint64_t key = keyFor(source, receiver, vector);
    switch (stage) {
      case IntrStage::Raise:
        onPosted(key);
        return;
      case IntrStage::Return:
        onDelivered(key);
        return;
      case IntrStage::Abandon:
        onAbandoned(key);
        return;
      case IntrStage::Drop:
        onAbandonedOne(key);
        return;
      default:
        return;  // timing stages: nothing to account
    }
}

void
DeliveryLedger::onPosted(std::uint64_t key)
{
    Entry &e = entries_[key];
    ++e.posted;
    ++e.outstanding;
    ++posted_;
}

void
DeliveryLedger::onDelivered(std::uint64_t key)
{
    Entry &e = entries_[key];
    ++e.delivered;
    ++delivered_;
    // One delivery satisfies every post that preceded it (PIR /
    // DUPID / pending-signal coalescing). The extras are accounted
    // as coalesced-into-this-delivery, not lost.
    if (e.outstanding > 1)
        coalescedSatisfied_ += e.outstanding - 1;
    e.outstanding = 0;
    // Record eagerly: a later post would otherwise mask the phantom.
    if (e.delivered > e.posted)
        eager_.push_back("phantom delivery: " + describeKey(key) +
                         " delivered " +
                         std::to_string(e.delivered) +
                         "x after only " +
                         std::to_string(e.posted) + " posts");
}

void
DeliveryLedger::onAbandoned(std::uint64_t key)
{
    Entry &e = entries_[key];
    ++e.abandoned;
    e.outstanding = 0;
    ++abandoned_;
}

void
DeliveryLedger::onAbandonedOne(std::uint64_t key)
{
    Entry &e = entries_[key];
    ++e.abandoned;
    if (e.outstanding > 0)
        --e.outstanding;
    ++abandoned_;
}

std::uint64_t
DeliveryLedger::outstanding() const
{
    std::uint64_t n = 0;
    for (const auto &[key, e] : entries_)
        n += e.outstanding;
    return n;
}

std::vector<std::string>
DeliveryLedger::check() const
{
    std::vector<std::string> out = eager_;
    for (const auto &[key, e] : entries_) {
        if (e.delivered > e.posted)
            continue;  // already reported eagerly
        if (e.posted > 0 && e.delivered == 0 && e.abandoned == 0) {
            out.push_back("lost notification: " + describeKey(key) +
                          " posted " + std::to_string(e.posted) +
                          "x, never delivered");
        } else if (e.outstanding > 0) {
            // The key saw deliveries, but posts arrived after the
            // last one and nothing ever satisfied them: a stranded
            // notification a whole-run total can't see.
            out.push_back("stranded notification: " +
                          describeKey(key) + " has " +
                          std::to_string(e.outstanding) +
                          " post(s) after its last delivery");
        }
    }
    return out;
}

} // namespace xui::fault
