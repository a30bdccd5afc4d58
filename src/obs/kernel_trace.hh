/**
 * @file
 * Per-vector counter tracks for kernel delivery-path counters.
 *
 * KernelCounterTrace turns the kernel's traced counter bumps (the
 * kKernelStats rows in os/kernel.hh marked `traced`:
 * `kernel.moderation.*`, `kernel.recovery.*`, `kernel.preempt.*`)
 * into Perfetto counter-track samples on the DES tier (pid 1): one
 * track per counter name, one series per vector ("v<N>", or "all"
 * for events with no vector in scope). Each bump
 * emits the cumulative count at the current simulated time, so an
 * overload or chaos run shows *when* coalescing windows opened,
 * flushes fired, or recovery rescans kicked in — in the same
 * timeline as the interrupt-lifecycle spans.
 *
 * The kernel holds a null-guarded pointer (the same
 * zero-cost-when-detached convention as metrics Counters); attach
 * via ObsSession::kernelTrace() + Kernel::attachCounterTrace().
 */

#ifndef XUI_OBS_KERNEL_TRACE_HH
#define XUI_OBS_KERNEL_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "des/time.hh"
#include "obs/trace_export.hh"

namespace xui
{

/** Emits cumulative per-vector counter samples on the DES tier. */
class KernelCounterTrace
{
  public:
    /** Sentinel for bumps with no vector in scope. */
    static constexpr unsigned kNoVector = 256;

    explicit KernelCounterTrace(TraceJsonWriter &out) : out_(&out)
    {
        out_->nameProcess(kTracePidDes, "des");
    }

    /**
     * Count `n` events on track `name`, series `v<vector>` (or
     * "all"), and emit the new cumulative value at `now`.
     */
    void bump(const char *name, unsigned vector, Cycles now,
              std::uint64_t n = 1)
    {
        std::uint64_t &count = counts_[{name, vector}];
        count += n;
        std::string series = vector == kNoVector
                                 ? std::string("all")
                                 : "v" + std::to_string(vector);
        out_->counter(name, now, kTracePidDes, 0,
                      "{\"" + series +
                          "\": " + std::to_string(count) + "}");
    }

  private:
    TraceJsonWriter *out_;
    std::map<std::pair<std::string, unsigned>, std::uint64_t>
        counts_;
};

} // namespace xui

#endif // XUI_OBS_KERNEL_TRACE_HH
