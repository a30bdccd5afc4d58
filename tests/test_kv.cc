/**
 * @file
 * KV-store tests: skiplist correctness against a std::map oracle
 * (property tests over random operation streams), workload
 * generation statistics, and the Fig. 7 server simulation shape.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "kv/kvstore.hh"
#include "kv/server.hh"
#include "kv/skiplist.hh"
#include "stats/rng.hh"

using namespace xui;

// ----------------------------------------------------------------------
// SkipList
// ----------------------------------------------------------------------

TEST(SkipList, EmptyBehaviour)
{
    SkipList s;
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.get("a").has_value());
    EXPECT_FALSE(s.erase("a"));
    EXPECT_TRUE(s.scan("", 10).empty());
}

TEST(SkipList, PutGetOverwrite)
{
    SkipList s;
    EXPECT_TRUE(s.put("k", "v1"));
    EXPECT_EQ(s.get("k").value(), "v1");
    EXPECT_FALSE(s.put("k", "v2"));  // overwrite, not new
    EXPECT_EQ(s.get("k").value(), "v2");
    EXPECT_EQ(s.size(), 1u);
}

TEST(SkipList, EraseRemoves)
{
    SkipList s;
    s.put("a", "1");
    s.put("b", "2");
    EXPECT_TRUE(s.erase("a"));
    EXPECT_FALSE(s.get("a").has_value());
    EXPECT_FALSE(s.erase("a"));
    EXPECT_EQ(s.size(), 1u);
}

TEST(SkipList, ScanOrderedFromStart)
{
    SkipList s;
    for (int i : {5, 3, 9, 1, 7})
        s.put("k" + std::to_string(i), std::to_string(i));
    auto out = s.scan("k3", 3);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].first, "k3");
    EXPECT_EQ(out[1].first, "k5");
    EXPECT_EQ(out[2].first, "k7");
}

TEST(SkipList, ScanLimitRespected)
{
    SkipList s;
    for (int i = 0; i < 100; ++i)
        s.put(KvStore::keyFor(static_cast<std::uint64_t>(i)), "v");
    EXPECT_EQ(s.scan("", 10).size(), 10u);
    EXPECT_EQ(s.scan(KvStore::keyFor(95), 10).size(), 5u);
}

class SkipListOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SkipListOracle, MatchesStdMapUnderRandomOps)
{
    Rng rng(GetParam());
    SkipList s(GetParam() ^ 0xabc);
    std::map<std::string, std::string> oracle;

    for (int op = 0; op < 4000; ++op) {
        std::string key =
            "k" + std::to_string(rng.nextBounded(300));
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: {  // put
            std::string val = "v" + std::to_string(op);
            bool fresh = s.put(key, val);
            bool oracle_fresh = oracle.find(key) == oracle.end();
            EXPECT_EQ(fresh, oracle_fresh);
            oracle[key] = val;
            break;
          }
          case 2: {  // get
            auto got = s.get(key);
            auto it = oracle.find(key);
            if (it == oracle.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, it->second);
            }
            break;
          }
          case 3: {  // erase
            bool removed = s.erase(key);
            EXPECT_EQ(removed, oracle.erase(key) > 0);
            break;
          }
        }
        EXPECT_EQ(s.size(), oracle.size());
    }

    // Final full-ordered comparison via scan.
    auto all = s.scan("", oracle.size() + 10);
    ASSERT_EQ(all.size(), oracle.size());
    auto it = oracle.begin();
    for (const auto &[k, v] : all) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipListOracle,
                         ::testing::Values(1, 7, 42, 1337, 9001));

TEST(SkipList, LevelBounded)
{
    SkipList s;
    for (int i = 0; i < 20000; ++i)
        s.put(KvStore::keyFor(static_cast<std::uint64_t>(i)), "v");
    EXPECT_LE(s.level(), SkipList::kMaxLevel);
    EXPECT_GE(s.level(), 4u);  // statistically certain at 20k keys
}

// ----------------------------------------------------------------------
// KvStore / load generator
// ----------------------------------------------------------------------

TEST(KvStore, PreloadPopulates)
{
    KvWorkloadParams params;
    params.numKeys = 500;
    KvStore store(params);
    store.preload();
    EXPECT_EQ(store.data().size(), 500u);
    EXPECT_TRUE(store.data().get(KvStore::keyFor(123)).has_value());
}

TEST(KvStore, ExecuteReturnsServiceTimes)
{
    KvWorkloadParams params;
    params.numKeys = 10;
    KvStore store(params);
    store.preload();
    KvRequest get;
    get.op = KvOp::Get;
    get.key = KvStore::keyFor(1);
    get.serviceTime = params.getServiceTime;
    EXPECT_EQ(store.execute(get), usToCycles(1.2));
    KvRequest scan;
    scan.op = KvOp::Scan;
    scan.key = KvStore::keyFor(0);
    scan.serviceTime = params.scanServiceTime;
    EXPECT_EQ(store.execute(scan), usToCycles(580));
}

TEST(KvLoadGen, MixAndRateMatchConfig)
{
    KvWorkloadParams params;
    KvLoadGen gen(params, 100000.0, Rng(5));
    std::uint64_t gets = 0, scans = 0;
    Cycles last = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        KvRequest r = gen.next();
        EXPECT_GE(r.arrival, last);
        last = r.arrival;
        (r.op == KvOp::Get ? gets : scans) += 1;
    }
    EXPECT_NEAR(static_cast<double>(gets) / n, 0.995, 0.002);
    // 100k rps -> mean gap 10us -> n requests span ~n*10us.
    double span_us = cyclesToUs(last);
    EXPECT_NEAR(span_us, n * 10.0, n * 10.0 * 0.05);
    EXPECT_GT(scans, 0u);
}

// ----------------------------------------------------------------------
// Fig. 7 server shape
// ----------------------------------------------------------------------

namespace
{

KvServerResult
quickRun(PreemptMode mode, double rps)
{
    KvServerConfig cfg;
    cfg.mode = mode;
    cfg.offeredLoadRps = rps;
    cfg.duration = 100 * kCyclesPerMs;
    cfg.seed = 3;
    return runKvServer(cfg);
}

} // namespace

TEST(KvServer, NoPreemptionHolBlocksGets)
{
    KvServerResult r = quickRun(PreemptMode::None, 30000.0);
    ASSERT_GT(r.getLatency.count(), 100u);
    // Even at modest load, GET p99 suffers from 580us SCANs.
    EXPECT_GT(r.getLatency.p99(),
              static_cast<std::int64_t>(usToCycles(100)));
}

TEST(KvServer, PreemptionRescuesGetTail)
{
    KvServerResult none = quickRun(PreemptMode::None, 30000.0);
    KvServerResult xui = quickRun(PreemptMode::XuiKbTimer, 30000.0);
    ASSERT_GT(xui.getLatency.count(), 100u);
    EXPECT_LT(xui.getLatency.p99(), none.getLatency.p99() / 4);
}

TEST(KvServer, XuiOutperformsUipiAtHighLoad)
{
    // Near saturation the cheaper receive path shows up as lower
    // GET tail latency / higher effective capacity.
    KvServerResult uipi = quickRun(PreemptMode::UipiSwTimer,
                                   150000.0);
    KvServerResult xui = quickRun(PreemptMode::XuiKbTimer,
                                  150000.0);
    EXPECT_LT(xui.getLatency.p99(), uipi.getLatency.p99());
    EXPECT_GE(xui.completed, uipi.completed);
}

TEST(KvServer, UipiModeBurnsTimerCore)
{
    KvServerResult r = quickRun(PreemptMode::UipiSwTimer, 50000.0);
    EXPECT_GT(r.timerCoreUtilization, 0.0);
    KvServerResult x = quickRun(PreemptMode::XuiKbTimer, 50000.0);
    EXPECT_DOUBLE_EQ(x.timerCoreUtilization, 0.0);
}

TEST(KvServer, ScanLatencyElevatedByPreemption)
{
    KvServerResult none = quickRun(PreemptMode::None, 30000.0);
    KvServerResult xui = quickRun(PreemptMode::XuiKbTimer, 30000.0);
    ASSERT_GT(xui.scanLatency.count(), 5u);
    // SCANs pay for being preempted (paper: "slightly elevated
    // tail latencies for SCAN requests").
    EXPECT_GT(xui.scanLatency.p50(), none.scanLatency.p50());
}

TEST(KvServer, ThroughputTracksOfferedLoadBelowSaturation)
{
    KvServerResult r = quickRun(PreemptMode::XuiKbTimer, 50000.0);
    EXPECT_NEAR(r.achievedRps, 50000.0, 5000.0);
}

TEST(KvServer, ArrivalsStreamThroughAShallowEventPool)
{
    // A bench/perf des_apps point: ~4k requests at 0.8x saturation.
    // The arrivals are one event series, so the event pool holds
    // the runtime's few events and one arrival, not every request.
    KvServerConfig cfg;
    cfg.mode = PreemptMode::XuiKbTimer;
    cfg.offeredLoadRps = 0.8 * 250000.0;
    cfg.duration = 20 * kCyclesPerMs;
    KvServerResult r = runKvServer(cfg);
    ASSERT_GT(r.offered, 3'000u);
    EXPECT_LE(r.eventPoolSlots, 8u);
}
