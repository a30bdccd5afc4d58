#include "kv/kvstore.hh"

#include <cstdio>

namespace xui
{

KvStore::KvStore(const KvWorkloadParams &params, std::uint64_t seed)
    : params_(params), data_(seed)
{}

std::string
KvStore::keyFor(std::uint64_t i)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "key%012llu",
                  static_cast<unsigned long long>(i));
    return buf;
}

void
KvStore::preload()
{
    for (std::uint64_t i = 0; i < params_.numKeys; ++i)
        data_.put(keyFor(i), "value" + std::to_string(i));
}

Cycles
KvStore::execute(const KvRequest &req)
{
    switch (req.op) {
      case KvOp::Get:
        (void)data_.get(req.key);
        return req.serviceTime ? req.serviceTime
                               : params_.getServiceTime;
      case KvOp::Scan:
        (void)data_.scan(req.key, params_.scanLimit);
        return req.serviceTime ? req.serviceTime
                               : params_.scanServiceTime;
      case KvOp::Put:
        data_.put(req.key, "v");
        return req.serviceTime ? req.serviceTime
                               : params_.getServiceTime;
    }
    return params_.getServiceTime;
}

KvLoadGen::KvLoadGen(const KvWorkloadParams &params, double rate_rps,
                     Rng rng)
    : params_(params),
      arrivals_(rate_rps / static_cast<double>(kCyclesPerSec),
                rng.split()),
      rng_(rng)
{}

KvRequest
KvLoadGen::next()
{
    KvRequest req;
    req.id = nextId_++;
    req.arrival = arrivals_.nextArrival();
    bool is_get = rng_.nextBool(params_.getFraction);
    req.op = is_get ? KvOp::Get : KvOp::Scan;
    req.serviceTime = is_get ? params_.getServiceTime
                             : params_.scanServiceTime;
    req.key = KvStore::keyFor(
        rng_.nextBounded(params_.numKeys ? params_.numKeys : 1));
    return req;
}

} // namespace xui
