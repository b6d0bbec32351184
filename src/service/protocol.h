/**
 * @file
 * Line-delimited JSON protocol of the what-if planning service
 * (DESIGN.md §14).
 *
 * One request per line, one response line per request. Plan queries
 * name a workload plus a provisioning constraint ("cheapest config
 * under completion deadline D" / "fastest config under budget B" /
 * unconstrained "min-cost") and carry their own service-level
 * deadline budget (timeout_ms) — the time the *service* may spend
 * answering, distinct from the *cluster* completion deadline being
 * optimized for. Control queries ({"cmd":"stats"} / {"cmd":"health"})
 * return the operator counters.
 *
 * The parser is a deliberately small flat-JSON reader: objects of
 * string/number/boolean fields, strict about unknown keys so a typoed
 * field fails loudly instead of silently falling back to a default.
 */

#ifndef DOPPIO_SERVICE_PROTOCOL_H
#define DOPPIO_SERVICE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace doppio::service {

/**
 * Longest request line either transport accepts, far above any legal
 * request: parseLine() rejects longer lines, and serveTcp stops
 * buffering a line at this length.
 */
constexpr std::size_t kMaxLineBytes = 64 * 1024;

/** One parsed request line. */
struct Request
{
    enum class Kind { Plan, Stats, Health, Metrics };
    /** Constraint mode of a plan query. */
    enum class Mode { MinCost, CheapestUnderDeadline, FastestUnderBudget };

    Kind kind = Kind::Plan;
    std::string id;
    std::string workload;
    Mode mode = Mode::MinCost;
    double deadlineSec = 0.0; //!< cluster completion deadline (cheapest)
    double budgetUsd = 0.0;   //!< dollar budget (fastest)
    int workers = 0;          //!< fleet size; 0 = service default
    double timeoutMs = 0.0;   //!< service deadline budget; 0 = default
    double atMs = 0.0;        //!< arrival time (scripts; TCP ignores it)

    /**
     * Parse one line; fatal() (FatalError) on a line longer than
     * kMaxLineBytes, malformed JSON, unknown keys, missing required
     * fields or out-of-range values.
     */
    static Request parseLine(const std::string &line);

    /** Canonical result-cache / single-flight key (excludes id/times). */
    std::string cacheKey() const;

    /** @return "min-cost" / "cheapest" / "fastest". */
    static const char *modeName(Mode mode);
};

/** One response line. */
struct Response
{
    std::string id;
    double tMs = 0.0;     //!< emission time on the event loop's clock
    /** ok | shed | rejected | expired | error. */
    std::string status = "ok";
    std::string reason;   //!< non-ok detail, e.g. "queue_full"
    /** hit | miss | dedup (empty for control/non-plan responses). */
    std::string cacheOutcome;
    bool degraded = false;  //!< partial/deadline-clipped answer
    bool modelOnly = false; //!< simulator validation skipped (Eq. 1 only)
    bool haveConfig = false;
    std::string config;    //!< winning configuration, human-readable
    double costUsd = 0.0;
    double runtimeSec = 0.0;
    int cellsDone = 0;     //!< grid cells evaluated before the budget hit
    int cellsTotal = 0;
    int retries = 0;       //!< slow-path retry attempts for this request
    double backoffMs = 0.0; //!< deadline budget spent backing off
    double latencyMs = 0.0; //!< arrival -> response, budget time

    /** Serialize as one JSON line (no trailing newline). */
    std::string toJson() const;
};

/** Operator-facing counters (stats/health responses, --stats-json). */
struct ServiceStats
{
    std::uint64_t received = 0;
    std::uint64_t completed = 0; //!< plan queries answered (ok or error)
    std::uint64_t ok = 0;
    std::uint64_t degraded = 0;
    std::uint64_t modelOnly = 0;
    std::uint64_t shed = 0;      //!< dropped by queue bound / breaker
    std::uint64_t rejected = 0;  //!< denied by the token bucket
    std::uint64_t expired = 0;   //!< deadline passed while queued
    std::uint64_t errors = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t dedupJoins = 0;   //!< single-flight followers
    std::uint64_t cacheEvictions = 0;
    /** Result-cache hit fraction of cache lookups (hits + misses);
     *  0 before any lookup. */
    double cacheHitRatio = 0.0;
    std::uint64_t retries = 0;      //!< slow-path retry attempts
    double backoffMsTotal = 0.0;    //!< budget spent in retry backoff
    std::uint64_t slowPathRuns = 0; //!< simulator runs (profile+validate)
    double slowPathMsTotal = 0.0;
    /**
     * Gray-failure telemetry summed from the slow-path simulator runs'
     * fault metrics, so operators can tell shed load (queue pressure)
     * apart from injected failures: network partition backoff rounds
     * (net::Network::partitionTimeouts()) and per-job task retries.
     */
    std::uint64_t partitionTimeouts = 0;
    std::uint64_t slowPathTaskRetries = 0;
    /** Coalesced cold-sweep dispatches (width >= 2) and the queries
     *  they served (DESIGN.md §16). */
    std::uint64_t batches = 0;
    std::uint64_t batchedQueries = 0;
    /** Optimizer evaluation-memo hits across all cached models. */
    std::uint64_t cellsMemoHit = 0;
    /** Grid cells branch-and-bound proved it never had to model. */
    std::uint64_t cellsPruned = 0;
    /** Profiling runs skipped because --model-store had the model. */
    std::uint64_t modelStoreHits = 0;
    std::uint64_t breakerTrips = 0;
    std::string breakerState = "closed";
    /**
     * Milliseconds the breaker has spent per state (including the
     * current stretch), on the transport's clock. Together with
     * breakerTrips these separate shed-by-policy (closed breaker,
     * queue pressure) from shed-by-failure (time pinned open).
     */
    double breakerClosedMs = 0.0;
    double breakerOpenMs = 0.0;
    double breakerHalfOpenMs = 0.0;
    std::uint64_t queueDepth = 0;
    std::uint64_t maxQueueDepth = 0;
    double p50LatencyMs = 0.0;
    double p99LatencyMs = 0.0;

    /** Serialize as one JSON line (no trailing newline). */
    std::string toJson() const;
};

/** Format a double the way every service JSON writer does. */
std::string jsonNum(double value);

} // namespace doppio::service

#endif // DOPPIO_SERVICE_PROTOCOL_H
