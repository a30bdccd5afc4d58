/**
 * @file
 * Test observer that folds an interrupt-lifecycle stream into one
 * FNV-1a digest: (stage, source, vector, cycle, receiver) per stage
 * transition, in order. The span id is not folded: the DES kernel
 * reports 0 for every stage. Attached beside a DeliveryLedger through
 * an IntrObserverTee, it pins the whole stream a kernel run emits,
 * not just the ledger's totals.
 */

#ifndef XUI_TESTS_INTR_STREAM_DIGEST_HH
#define XUI_TESTS_INTR_STREAM_DIGEST_HH

#include <cstdint>

#include "intr/intr_observer.hh"
#include "stats/digest.hh"

namespace xui::test
{

struct IntrStreamDigest : IntrLifecycleObserver
{
    Fnv1a digest;
    std::uint64_t stages = 0;

    void intrStage(IntrStage stage, std::uint64_t, IntrSource source,
                   std::uint8_t vector, Cycles cycle,
                   unsigned receiver) override
    {
        digest.update(static_cast<std::uint64_t>(stage));
        digest.update(static_cast<std::uint64_t>(source));
        digest.update(vector);
        digest.update(cycle);
        digest.update(receiver);
        ++stages;
    }
};

} // namespace xui::test

#endif // XUI_TESTS_INTR_STREAM_DIGEST_HH
