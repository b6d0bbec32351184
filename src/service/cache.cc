#include "service/cache.h"

#include "common/logging.h"

namespace doppio::service {

bool
SingleFlight::begin(const std::string &key)
{
    return inFlight_.emplace(key, std::vector<std::uint64_t>{}).second;
}

void
SingleFlight::attach(const std::string &key, std::uint64_t seq)
{
    const auto it = inFlight_.find(key);
    if (it == inFlight_.end())
        panic("SingleFlight: attach to key with no leader");
    it->second.push_back(seq);
    ++joins_;
}

bool
SingleFlight::inFlight(const std::string &key) const
{
    return inFlight_.count(key) > 0;
}

std::vector<std::uint64_t>
SingleFlight::finish(const std::string &key)
{
    const auto it = inFlight_.find(key);
    if (it == inFlight_.end())
        return {};
    std::vector<std::uint64_t> followers = std::move(it->second);
    inFlight_.erase(it);
    return followers;
}

} // namespace doppio::service
