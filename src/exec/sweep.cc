#include "exec/sweep.hh"

#include <cstdint>
#include <thread>

#include "cli/number.hh"

namespace xui::exec
{

unsigned
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
effectiveJobs(unsigned requested)
{
    return requested == 0 ? hardwareJobs() : requested;
}

bool
parseJobs(const char *text, unsigned &jobs)
{
    std::uint64_t value = 0;
    if (!cli::parseU64Strict(text, value) || value == 0 || value > 1024)
        return false;
    jobs = static_cast<unsigned>(value);
    return true;
}

} // namespace xui::exec
