/**
 * @file
 * The what-if planning service (DESIGN.md §14).
 *
 * A PlanningService answers line-delimited JSON plan queries through
 * one single-threaded virtual-time event loop (arrival/completion
 * min-heap) where every cost is virtual milliseconds from the
 * planner's deterministic accounting. Two entries post into it:
 *
 *   - runScript(): requests carry their own virtual arrival times
 *     (at_ms). The same seeded script always yields a byte-identical
 *     response transcript — this is what tests, the golden CI
 *     transcript and bench/ext_service use.
 *   - answerLine(): one line arriving at the caller's clock (its at_ms
 *     ignored), drained before it returns. serveTcp feeds it a
 *     monotonic wall-derived time, so a socket client goes through
 *     the same admission pipeline; with one line at a time in flight
 *     it never queues, dedups or batches.
 *
 * Admission pipeline, in order: result cache (hit = free) ->
 * single-flight dedup (follower parks on the leader) -> token bucket
 * (reject "rate_limit") -> worker slot or bounded queue (full: shed
 * oldest or reject newcomer, "queue_full") -> at dispatch, expiry
 * check ("expired", flagged degraded) and circuit breaker (no cached
 * model + open breaker = shed "circuit_open") -> budgeted plan.
 * Accepted requests therefore either complete within their deadline
 * budget or return flagged-degraded answers; the queue never grows
 * past its bound.
 */

#ifndef DOPPIO_SERVICE_SERVER_H
#define DOPPIO_SERVICE_SERVER_H

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/token_bucket.h"
#include "service/breaker.h"
#include "service/cache.h"
#include "service/planner.h"
#include "service/protocol.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"

namespace doppio::service {

/** Service-level tuning; planner tuning nests inside. */
struct ServiceConfig
{
    PlannerConfig planner;
    CircuitBreaker::Config breaker;
    /** Bounded admission queue (dispatch-waiting plan queries). */
    std::size_t queueCapacity = 16;
    /** Queue-full policy: shed the oldest queued query (default) or
     *  reject the newcomer. */
    bool dropOldest = true;
    /** Token-bucket admission rate (queries/sec); 0 = unlimited. */
    double ratePerSec = 0.0;
    double burst = 32.0;
    /** Virtual worker slots evaluating plans concurrently. */
    int workers = 2;
    /** Service deadline budget when a query carries no timeout_ms. */
    double defaultTimeoutMs = 20000.0;
    /** Result-cache entries (LRU). */
    std::size_t cacheCapacity = 256;
    /**
     * Cold-query coalescing (DESIGN.md §16): when a worker frees up,
     * up to this many queued queries sharing one profile (same
     * workload + fleet size) ride a single batched sweep. 1 disables
     * batching; queries that arrive straight onto a free worker never
     * coalesce — batching only engages under queue pressure.
     */
    int batchMax = 8;
};

/** One scripted request: a raw line plus nothing else — the line's
 *  own at_ms field is its arrival time. */
using Script = std::vector<std::string>;

/** The planning server. */
class PlanningService
{
  public:
    explicit PlanningService(ServiceConfig config);

    /**
     * Replay @p script (raw request lines; blank lines and lines
     * starting with '#' are skipped) through the virtual-time event
     * loop. @return the response transcript, one JSON line per
     * response, in emission order. Deterministic: same script, same
     * seed, byte-identical transcript.
     */
    std::vector<std::string> runScript(const Script &script);

    /**
     * Post @p line's arrival at @p nowMs (the caller's clock; the
     * line's own at_ms is ignored) into the event loop and drain it.
     * @return the lines this call emitted — one for any single line
     * posted onto an idle service.
     */
    std::vector<std::string> answerLine(const std::string &line,
                                        double nowMs);

    /** Operator counters as of now. */
    ServiceStats stats() const;
    std::string statsJson() const { return stats().toJson(); }

    /**
     * Publish the service's counters, queue-wait histogram and breaker
     * state into @p registry under doppio_service_* names. Safe to
     * call on a fresh registry any time; the service never retains a
     * reference to it.
     */
    void publishMetrics(telemetry::Registry &registry) const;

    /**
     * Prometheus exposition of the service metrics: a fresh registry
     * filled by publishMetrics(). This is what the {"cmd":"metrics"}
     * control query wraps in its JSON envelope.
     */
    std::string metricsText() const;

    /**
     * Attach a flight recorder (non-owning; nullptr detaches). The
     * service notes every shed/rejected/expired/error response into
     * it, and when the circuit breaker opens it dumps a postmortem to
     * @p postmortemPath (empty: record but never dump).
     */
    void setFlightRecorder(telemetry::FlightRecorder *recorder,
                           std::string postmortemPath = "");

    /**
     * Structured log of every plan response emitted so far, in
     * emission order — what the bench and tests assert invariants
     * over without re-parsing JSON.
     */
    const std::vector<Response> &responseLog() const { return log_; }

    const ServiceConfig &config() const { return config_; }
    const CircuitBreaker &breaker() const { return breaker_; }

  private:
    struct Pending
    {
        Request req;
        double arrivalMs = 0.0;
        bool leader = false; //!< began single-flight for its key
    };

    struct Event
    {
        double tMs = 0.0;
        std::uint64_t order = 0; //!< FIFO tiebreak at equal times
        enum class Kind { Arrival, Completion } kind = Kind::Arrival;
        std::uint64_t seq = 0; //!< the arriving request
        // Completion payload: the dispatched requests in dispatch
        // order, aligned with outcome.responses. The outcome's
        // aggregates are the breaker verdict for the one worker slot.
        std::vector<std::uint64_t> members;
        Planner::Outcome outcome;
        bool coalesced = false; //!< dispatched as a batch (width >= 2)
        bool probeClaimed = false;

        bool operator>(const Event &other) const
        {
            if (tMs != other.tMs)
                return tMs > other.tMs;
            return order > other.order;
        }
    };

    double timeoutFor(const Request &req) const;
    void emit(const Response &response);
    void emitLine(const std::string &line);
    std::string healthLine(double nowMs) const;
    std::string metricsLine() const;
    void onBreakerOpen(double nowMs);
    Response makeShed(const Pending &pending, double nowMs,
                      const char *status, const char *reason) const;

    /** Shed/expire a leader and its attached followers. */
    void shedFlight(std::uint64_t seq, double nowMs, const char *status,
                    const char *reason);

    /**
     * Parse @p line and post its arrival at @p nowMs, or at its own
     * at_ms when @p nowMs is empty. An unparseable line is answered
     * on the spot.
     */
    void submit(const std::string &line, std::optional<double> nowMs);
    /** Run the event loop dry; @return the lines emitted since the
     *  last drain. */
    std::vector<std::string> drain();

    void onArrival(std::uint64_t seq, double nowMs);
    /** Dispatch queued queries onto free workers, coalescing
     *  same-profile neighbours when batchMax allows. */
    void drainQueue(double nowMs);
    /**
     * Plan @p seqs (one profile) on one worker slot with one
     * Planner::plan() call, whatever their number, and schedule the
     * completion event.
     */
    void dispatch(const std::vector<std::uint64_t> &seqs, double nowMs);
    void onCompletion(const Event &event);

    void countResponse(const Response &response);

    ServiceConfig config_;
    Planner planner_;
    CircuitBreaker breaker_;
    common::TokenBucket bucket_;
    common::LruCache<std::string, Response> cache_;
    SingleFlight flight_;

    // Event loop state.
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    std::uint64_t nextOrder_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::deque<std::uint64_t> queue_;
    int busyWorkers_ = 0;
    std::vector<std::string> transcript_;

    // Counters / logs.
    std::vector<Response> log_;
    std::vector<double> latencies_; //!< terminal plan responses, ms
    ServiceStats counters_;         //!< event counts (derived fields
                                    //!< filled by stats())

    // Telemetry (all optional; absent they cost null checks only).
    /// Queue-wait milliseconds of every dispatched query.
    telemetry::Histogram queueWaitMs_{1e-3};
    /// Width of every queue-drain dispatch while batching is enabled
    /// (width 1 included — the distribution shows coalescing odds).
    telemetry::Histogram batchWidth_{1.0};
    /// Latest transport clock value seen, for time-in-state queries.
    double lastNowMs_ = 0.0;
    telemetry::FlightRecorder *recorder_ = nullptr;
    std::string postmortemPath_;
};

/**
 * Serve the line protocol on TCP port @p port until @p maxRequests
 * lines have been answered (0 = forever). One connection at a time,
 * one response line per request line, each answered through
 * PlanningService::answerLine(). A line longer than kMaxLineBytes is
 * answered bad_request and closes its connection. @return requests
 * served.
 */
std::uint64_t serveTcp(PlanningService &service, int port,
                       std::uint64_t maxRequests = 0);

} // namespace doppio::service

#endif // DOPPIO_SERVICE_SERVER_H
