/**
 * @file
 * Tests for the planning service's admission primitives: the LRU
 * cache (common/lru_cache.h), the token bucket
 * (common/token_bucket.h) and the single-flight registry
 * (src/service/cache.h).
 */

#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/token_bucket.h"
#include "service/cache.h"

using namespace doppio;

TEST(LruCache, RejectsZeroCapacity)
{
    EXPECT_THROW((common::LruCache<int, int>(0)), FatalError);
}

TEST(LruCache, CapacityOneEvictsOnEveryNewKey)
{
    common::LruCache<std::string, int> cache(1);
    cache.put("a", 1);
    EXPECT_TRUE(cache.contains("a"));
    cache.put("b", 2);
    EXPECT_FALSE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("b"));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    // Overwriting the sole entry is not an eviction.
    cache.put("b", 3);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(*cache.get("b"), 3);
}

TEST(LruCache, EvictionFollowsAccessOrderNotInsertionOrder)
{
    common::LruCache<std::string, int> cache(3);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("c", 3);
    // Touch the oldest: "a" becomes MRU, "b" is now LRU.
    ASSERT_NE(cache.get("a"), nullptr);
    cache.put("d", 4);
    EXPECT_FALSE(cache.contains("b"));
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("c"));
    EXPECT_TRUE(cache.contains("d"));
    EXPECT_EQ(cache.keysMruToLru(),
              (std::vector<std::string>{"d", "a", "c"}));
}

TEST(LruCache, ReinsertionPromotesToMru)
{
    common::LruCache<std::string, int> cache(3);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("c", 3);
    // Reinserting the LRU entry must move it to MRU, so the next
    // eviction takes "b" instead.
    cache.put("a", 10);
    cache.put("d", 4);
    EXPECT_FALSE(cache.contains("b"));
    EXPECT_EQ(*cache.get("a"), 10);
}

TEST(LruCache, PeekDoesNotPromote)
{
    common::LruCache<std::string, int> cache(2);
    cache.put("a", 1);
    cache.put("b", 2);
    ASSERT_NE(cache.peek("a"), nullptr);
    cache.put("c", 3); // "a" still LRU despite the peek
    EXPECT_FALSE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("b"));
}

TEST(LruCache, CountsHitsMissesAndErase)
{
    common::LruCache<std::string, int> cache(2);
    EXPECT_EQ(cache.get("a"), nullptr);
    cache.put("a", 1);
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_TRUE(cache.erase("a"));
    EXPECT_FALSE(cache.erase("a"));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TokenBucket, RejectsBadParameters)
{
    EXPECT_THROW(common::TokenBucket(-1.0, 1.0), FatalError);
    EXPECT_THROW(common::TokenBucket(1.0, 0.0), FatalError);
}

TEST(TokenBucket, ZeroRateGrantsOnlyTheInitialBurst)
{
    common::TokenBucket bucket(0.0, 2.0);
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_FALSE(bucket.tryAcquire(0.0));
    // No amount of elapsed time refills a zero-rate bucket.
    EXPECT_FALSE(bucket.tryAcquire(1e9));
    EXPECT_EQ(bucket.granted(), 2u);
    EXPECT_EQ(bucket.denied(), 2u);
}

TEST(TokenBucket, RefillsAtRateAndCapsAtBurst)
{
    common::TokenBucket bucket(2.0, 4.0); // 2 tokens/s, burst 4
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_FALSE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.5)); // 0.5s * 2/s = 1 token
    EXPECT_FALSE(bucket.tryAcquire(0.5));
    // A long idle period refills to burst, not beyond.
    EXPECT_DOUBLE_EQ(bucket.available(100.0), 4.0);
}

TEST(TokenBucket, BackwardsTimeMintsNoTokens)
{
    common::TokenBucket bucket(1.0, 1.0);
    EXPECT_TRUE(bucket.tryAcquire(10.0));
    // A clock that jumps backwards must not refill.
    EXPECT_FALSE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(11.0));
}

TEST(SingleFlight, LeaderThenFollowersThenFinish)
{
    service::SingleFlight flight;
    EXPECT_TRUE(flight.begin("k"));
    EXPECT_FALSE(flight.begin("k"));
    EXPECT_TRUE(flight.inFlight("k"));
    flight.attach("k", 7);
    flight.attach("k", 9);
    EXPECT_EQ(flight.joins(), 2u);
    EXPECT_EQ(flight.finish("k"), (std::vector<std::uint64_t>{7, 9}));
    EXPECT_FALSE(flight.inFlight("k"));
    EXPECT_TRUE(flight.finish("k").empty());
}
