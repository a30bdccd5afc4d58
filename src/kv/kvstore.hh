/**
 * @file
 * The RocksDB-substitute key-value store plus the paper's workload
 * definition (99.5% GET at 1.2 us, 0.5% SCAN at 580 us; §5.3).
 *
 * The store performs real skiplist operations (so the API and data
 * path are genuine); the *simulated service time* of each request is
 * the paper's measured RocksDB cost, which is what the scheduling
 * experiments consume.
 */

#ifndef XUI_KV_KVSTORE_HH
#define XUI_KV_KVSTORE_HH

#include <cstdint>
#include <string>

#include "des/time.hh"
#include "kv/skiplist.hh"
#include "stats/distributions.hh"
#include "stats/rng.hh"

namespace xui
{

/** Request types in the bimodal workload. */
enum class KvOp : std::uint8_t
{
    Get,
    Scan,
    Put,
};

/** One client request. */
struct KvRequest
{
    std::uint64_t id = 0;
    KvOp op = KvOp::Get;
    std::string key;
    /** Arrival time at the server. */
    Cycles arrival = 0;
    /** Service demand in cycles (drawn at generation time). */
    Cycles serviceTime = 0;
};

/** Workload parameters (paper defaults). */
struct KvWorkloadParams
{
    double getFraction = 0.995;
    Cycles getServiceTime = usToCycles(1.2);
    Cycles scanServiceTime = usToCycles(580);
    /** Keys preloaded into the store. */
    std::size_t numKeys = 10000;
    /** SCAN range length (entries returned). */
    std::size_t scanLimit = 100;
};

/** The key-value store. */
class KvStore
{
  public:
    explicit KvStore(const KvWorkloadParams &params = {},
                     std::uint64_t seed = 0xdb);

    /** Populate `numKeys` sequential keys. */
    void preload();

    /**
     * Execute a request against the real skiplist.
     * @return the configured service time for this operation.
     */
    Cycles execute(const KvRequest &req);

    SkipList &data() { return data_; }
    const KvWorkloadParams &params() const { return params_; }

    /** Key for index i, zero-padded so ordering is lexicographic. */
    static std::string keyFor(std::uint64_t i);

  private:
    KvWorkloadParams params_;
    SkipList data_;
};

/**
 * Open-loop request generator: Poisson arrivals at a configured
 * offered load, bimodal op mix (Caladan-style load generator over
 * UDP, §5.3).
 */
class KvLoadGen
{
  public:
    /**
     * @param params workload definition
     * @param rate_rps offered load in requests/second
     * @param rng private stream
     */
    KvLoadGen(const KvWorkloadParams &params, double rate_rps,
              Rng rng);

    /** Generate the next request (arrival times increase). */
    KvRequest next();

  private:
    KvWorkloadParams params_;
    PoissonProcess arrivals_;
    Rng rng_;
    std::uint64_t nextId_ = 1;
};

} // namespace xui

#endif // XUI_KV_KVSTORE_HH
