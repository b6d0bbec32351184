/**
 * @file
 * Single-flight dedup for the planning service (DESIGN.md §14).
 *
 * SingleFlight: dedup of concurrent identical queries. The first
 * arrival becomes the leader and computes; later arrivals attach as
 * followers and are answered from the leader's result at its
 * completion, occupying no queue slot and doing no evaluation work.
 */

#ifndef DOPPIO_SERVICE_CACHE_H
#define DOPPIO_SERVICE_CACHE_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace doppio::service {

/** Concurrent-identical-query dedup registry. */
class SingleFlight
{
  public:
    /**
     * @return true when @p key had no leader (the caller becomes it);
     * false when already in flight (the caller should attach()).
     */
    bool begin(const std::string &key);

    /** Register @p seq as a follower of @p key's leader. */
    void attach(const std::string &key, std::uint64_t seq);

    bool inFlight(const std::string &key) const;

    /**
     * The leader finished: @return the followers' sequence numbers
     * (in attach order) and forget the key.
     */
    std::vector<std::uint64_t> finish(const std::string &key);

    std::uint64_t joins() const { return joins_; }

  private:
    std::unordered_map<std::string, std::vector<std::uint64_t>> inFlight_;
    std::uint64_t joins_ = 0;
};

} // namespace doppio::service

#endif // DOPPIO_SERVICE_CACHE_H
