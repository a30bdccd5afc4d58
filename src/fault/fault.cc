#include "fault/fault.hh"

#include <cstdlib>

#include "cli/number.hh"
#include "stats/rng.hh"

namespace xui::fault
{

namespace
{

constexpr const char *kSiteNames[] = {
    "notify_ipi", "kbtimer_fire", "kbtimer_poll",
    "forward_dispatch", "deschedule", "raise_uarch",
    "moderation_flush", "preempt_save", "ff_transition",
    "checkpoint_write",
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) ==
              kNumSites);

constexpr const char *kActionNames[] = {
    "none", "drop", "delay", "duplicate", "reorder", "spurious",
    "storm",
};
static_assert(sizeof(kActionNames) / sizeof(kActionNames[0]) ==
              static_cast<std::size_t>(Action::kCount));

bool
parseName(const std::string &text, const char *const *names,
          std::size_t n, std::size_t &out)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (text == names[i]) {
            out = i;
            return true;
        }
    }
    return false;
}

} // namespace

const char *
siteName(Site s)
{
    return kSiteNames[static_cast<std::size_t>(s)];
}

const char *
actionName(Action a)
{
    return kActionNames[static_cast<std::size_t>(a)];
}

std::string
Schedule::encode() const
{
    std::string out;
    for (const Directive &d : directives) {
        if (!out.empty())
            out += ';';
        out += siteName(d.site);
        out += ':';
        out += std::to_string(d.occurrence);
        out += ':';
        out += actionName(d.action);
        out += ':';
        out += std::to_string(d.magnitude);
    }
    return out;
}

bool
Schedule::decode(const std::string &text, Schedule &out,
                 DecodeError *why)
{
    auto reject = [why](DecodeError e) {
        if (why != nullptr)
            *why = e;
        return false;
    };
    Schedule parsed;
    if (text.empty()) {
        out = parsed;
        return true;
    }
    // The number fields are read as C strings: an embedded NUL
    // would cut one short and let trailing bytes through.
    if (text.find('\0') != std::string::npos)
        return reject(DecodeError::Shape);
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t end = text.find(';', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(pos, end - pos);

        std::vector<std::string> parts;
        std::size_t p = 0;
        while (p <= item.size()) {
            std::size_t q = item.find(':', p);
            if (q == std::string::npos)
                q = item.size();
            parts.push_back(item.substr(p, q - p));
            p = q + 1;
        }
        if (parts.size() != 4)
            return reject(DecodeError::Shape);

        Directive d;
        std::size_t idx = 0;
        if (!parseName(parts[0], kSiteNames, kNumSites, idx))
            return reject(DecodeError::Site);
        d.site = static_cast<Site>(idx);
        if (!cli::parseU64Strict(parts[1].c_str(), d.occurrence))
            return reject(DecodeError::Occurrence);
        if (!parseName(parts[2], kActionNames,
                       static_cast<std::size_t>(Action::kCount), idx))
            return reject(DecodeError::Action);
        d.action = static_cast<Action>(idx);
        std::uint64_t mag = 0;
        if (!cli::parseU64Strict(parts[3].c_str(), mag) ||
            mag > 0xffffffffull)
            return reject(DecodeError::Magnitude);
        d.magnitude = static_cast<std::uint32_t>(mag);
        parsed.directives.push_back(d);

        if (end == text.size())
            break;
        pos = end + 1;
    }
    out = std::move(parsed);
    return true;
}

Schedule
generateSchedule(std::uint64_t seed, const ScheduleOptions &opts)
{
    struct Class
    {
        Site site;
        Action action;
    };
    std::vector<Class> classes;
    if (opts.dropNotification)
        classes.push_back({Site::NotifyIpi, Action::Drop});
    if (opts.delayNotification)
        classes.push_back({Site::NotifyIpi, Action::Delay});
    if (opts.duplicateNotification)
        classes.push_back({Site::NotifyIpi, Action::Duplicate});
    if (opts.reorderUpid)
        classes.push_back({Site::NotifyIpi, Action::Reorder});
    if (opts.stormNotification)
        classes.push_back({Site::NotifyIpi, Action::Storm});
    if (opts.timerMisfire)
        classes.push_back({Site::KbTimerFire, Action::Drop});
    if (opts.timerDelay)
        classes.push_back({Site::KbTimerFire, Action::Delay});
    if (opts.timerSpurious)
        classes.push_back({Site::KbTimerPoll, Action::Spurious});
    if (opts.dropForward)
        classes.push_back({Site::ForwardDispatch, Action::Drop});
    if (opts.delayForward)
        classes.push_back({Site::ForwardDispatch, Action::Delay});
    if (opts.descheduleWindow)
        classes.push_back({Site::Deschedule, Action::Delay});
    if (opts.dropModerationFlush)
        classes.push_back({Site::ModerationFlush, Action::Drop});
    if (opts.delayModerationFlush)
        classes.push_back({Site::ModerationFlush, Action::Delay});
    // Appended after every pre-existing class so schedules generated
    // with the older option set stay byte-identical.
    if (opts.dropPreemptSave)
        classes.push_back({Site::PreemptSave, Action::Drop});
    if (opts.duplicatePreemptSave)
        classes.push_back({Site::PreemptSave, Action::Duplicate});
    if (opts.delayFfDetail)
        classes.push_back({Site::FfTransition, Action::Delay});
    if (opts.dropFfRaise)
        classes.push_back({Site::FfTransition, Action::Drop});
    if (opts.duplicateFfRaise)
        classes.push_back({Site::FfTransition, Action::Duplicate});
    if (opts.dropCkptWrite)
        classes.push_back({Site::CheckpointWrite, Action::Drop});
    if (opts.tearCkptWrite)
        classes.push_back({Site::CheckpointWrite, Action::Delay});
    if (opts.flipCkptWrite)
        classes.push_back({Site::CheckpointWrite, Action::Duplicate});
    if (opts.truncateCkptWrite)
        classes.push_back({Site::CheckpointWrite, Action::Reorder});
    if (opts.stormDeschedule)
        classes.push_back({Site::Deschedule, Action::Storm});

    Schedule sched;
    if (classes.empty())
        return sched;
    Rng rng(seed);
    for (unsigned i = 0; i < opts.directives; ++i) {
        const Class &c = classes[rng.nextBounded(classes.size())];
        Directive d;
        d.site = c.site;
        d.action = c.action;
        d.occurrence = rng.nextBounded(opts.horizon ? opts.horizon : 1);
        switch (c.action) {
          case Action::Delay:
            d.magnitude = c.site == Site::Deschedule
                ? 1 + static_cast<std::uint32_t>(
                      rng.nextBounded(opts.maxWindow))
                : 1 + static_cast<std::uint32_t>(
                      rng.nextBounded(opts.maxDelay));
            break;
          case Action::Storm:
            d.magnitude = 2 + static_cast<std::uint32_t>(
                rng.nextBounded(opts.maxStorm > 2
                                ? opts.maxStorm - 1 : 1));
            break;
          case Action::Duplicate:
            // Checkpoint bit flips land at (magnitude % file size);
            // draw an offset so flips hit the payload region too,
            // not always byte 0 of the header. Only CheckpointWrite
            // classes reach here with a draw, so pre-existing
            // schedules stay byte-identical.
            d.magnitude = c.site == Site::CheckpointWrite
                ? static_cast<std::uint32_t>(
                      rng.nextBounded(opts.maxDelay))
                : 0;
            break;
          default:
            d.magnitude = 0;
            break;
        }
        sched.directives.push_back(d);
    }
    return sched;
}

Injector::Injector(Schedule schedule)
    : schedule_(std::move(schedule))
{
    for (std::size_t i = 0; i < schedule_.directives.size(); ++i) {
        const Directive &d = schedule_.directives[i];
        auto &slot = byOccurrence_[static_cast<std::size_t>(d.site)];
        // First directive for a (site, occurrence) wins; later
        // duplicates are inert (shrinking removes them).
        slot.emplace(d.occurrence, i);
    }
}

Injector::Decision
Injector::decide(Site site)
{
    std::size_t s = static_cast<std::size_t>(site);
    std::uint64_t occ = counts_[s]++;
    auto it = byOccurrence_[s].find(occ);
    if (it == byOccurrence_[s].end())
        return Decision{};
    const Directive &d = schedule_.directives[it->second];
    if (d.action == Action::None)
        return Decision{};
    ++injected_;
    Counter *c = actionCounters_[static_cast<std::size_t>(d.action)];
    if (c != nullptr)
        c->inc();
    return Decision{d.action, d.magnitude};
}

void
Injector::attachMetrics(MetricsRegistry &registry)
{
    for (std::size_t a = 1;
         a < static_cast<std::size_t>(Action::kCount); ++a) {
        actionCounters_[a] = &registry.counter(
            std::string("fault.injected.") +
            kActionNames[a]);
    }
}

} // namespace xui::fault
