/**
 * @file
 * Observability wiring shared by the bench binaries.
 *
 * Every bench that exports calls runObsScenario() before
 * ObsSession::finish(): the cycle-tier benches directly, the DES
 * figures (Figs. 6-9) through runFigure() in figure.hh. When the user
 * passed `--metrics-json` / `--trace-json` it executes one
 * representative instrumented scenario — fib under a periodic 5 us
 * KB timer with tracked delivery — so the exported files always
 * carry interrupt-lifecycle spans, per-core pipeline events, and
 * core counters. The benches' own measurement runs stay
 * uninstrumented (null observer, identical timing).
 *
 * The scenario forwards `--counter-stride` / `--tax` into the
 * session's pipeline-pressure profiler (src/obs/sampler.hh), which
 * only a UarchSystem attach reads. With `--tax` the scenario widens
 * to one core per delivery strategy (Tracked / Flush / Drain), each
 * under its own periodic timer, so the exported `core<N>.tax.*`
 * tables compare the interrupt tax of all three mechanisms side by
 * side.
 */

#ifndef XUI_BENCH_OBS_UTIL_HH
#define XUI_BENCH_OBS_UTIL_HH

#include "bench_util.hh"
#include "obs/session.hh"
#include "workloads/kernels.hh"

namespace xui::bench
{

inline void
runObsScenario(ObsSession &obs, const Options &opts)
{
    if (!obs.enabled())
        return;
    ProfileConfig profile;
    profile.counterStride = opts.counterStride;
    profile.tax = opts.tax;
    obs.setProfile(profile);
    Program prog = makeFib();
    UarchSystem sys(opts.seed);
    static const DeliveryStrategy kStrategies[] = {
        DeliveryStrategy::Tracked,
        DeliveryStrategy::Flush,
        DeliveryStrategy::Drain,
    };
    std::size_t ncores = opts.tax ? 3 : 1;
    for (std::size_t i = 0; i < ncores; ++i) {
        CoreParams params;
        params.strategy = kStrategies[i];
        sys.addCore(params, &prog);
    }
    obs.attach(sys);
    for (std::size_t i = 0; i < ncores; ++i) {
        OooCore &core = sys.core(i);
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, usToCycles(5),
                                KbTimerMode::Periodic);
    }
    sys.run(opts.quick ? 20000 : 100000);
    for (std::size_t i = 0; i < ncores; ++i)
        obs.publishCore(sys.core(i));
}

} // namespace xui::bench

#endif // XUI_BENCH_OBS_UTIL_HH
