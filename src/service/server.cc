#include "service/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "workloads/registry.h"

namespace doppio::service {

namespace {

bool
knownWorkload(const std::string &name)
{
    static const std::vector<std::string> names =
        workloads::registeredWorkloads();
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

PlanningService::PlanningService(ServiceConfig config)
    : config_(config), planner_(config.planner),
      breaker_(config.breaker),
      bucket_(config.ratePerSec,
              config.ratePerSec > 0.0 ? config.burst : 1.0),
      cache_(config.cacheCapacity)
{
    if (config_.workers < 1)
        fatal("PlanningService: workers must be positive");
    if (config_.queueCapacity < 1)
        fatal("PlanningService: queueCapacity must be positive");
    if (config_.defaultTimeoutMs <= 0.0)
        fatal("PlanningService: defaultTimeoutMs must be positive");
    if (config_.batchMax < 1)
        fatal("PlanningService: batchMax must be positive");
    breaker_.setOpenObserver(
        [this](double nowMs) { onBreakerOpen(nowMs); });
}

void
PlanningService::setFlightRecorder(telemetry::FlightRecorder *recorder,
                                   std::string postmortemPath)
{
    recorder_ = recorder;
    postmortemPath_ = std::move(postmortemPath);
}

void
PlanningService::onBreakerOpen(double nowMs)
{
    if (recorder_ == nullptr)
        return;
    recorder_->note("breaker opened (trip " +
                        std::to_string(breaker_.trips()) + ")",
                    static_cast<Tick>(nowMs * 1e6));
    if (!postmortemPath_.empty())
        recorder_->dumpToFile(postmortemPath_, "breaker-open");
}

double
PlanningService::timeoutFor(const Request &req) const
{
    return req.timeoutMs > 0.0 ? req.timeoutMs
                               : config_.defaultTimeoutMs;
}

void
PlanningService::countResponse(const Response &response)
{
    log_.push_back(response);
    if (response.status == "ok") {
        ++counters_.completed;
        ++counters_.ok;
        latencies_.push_back(response.latencyMs);
    } else if (response.status == "error") {
        ++counters_.completed;
        ++counters_.errors;
    } else if (response.status == "shed") {
        ++counters_.shed;
    } else if (response.status == "rejected") {
        ++counters_.rejected;
    } else if (response.status == "expired") {
        ++counters_.expired;
    } else {
        panic("PlanningService: unknown response status '%s'",
              response.status.c_str());
    }
    if (response.degraded)
        ++counters_.degraded;
    if (response.modelOnly)
        ++counters_.modelOnly;
    if (recorder_ != nullptr && response.status != "ok") {
        recorder_->note(response.status + " " + response.reason +
                            " id=" + response.id,
                        static_cast<Tick>(response.tMs * 1e6));
    }
}

void
PlanningService::emit(const Response &response)
{
    countResponse(response);
    transcript_.push_back(response.toJson());
}

void
PlanningService::emitLine(const std::string &line)
{
    transcript_.push_back(line);
}

std::string
PlanningService::healthLine(double nowMs) const
{
    const bool healthy = breaker_.state() == CircuitBreaker::State::Closed;
    std::string out = "{\"status\":\"";
    out += healthy ? "healthy" : "degraded";
    out += "\",\"breaker\":\"";
    out += breaker_.stateName();
    out += "\",\"queue_depth\":" + std::to_string(queue_.size());
    out += ",\"busy_workers\":" + std::to_string(busyWorkers_);
    out += ",\"partition_timeouts\":" +
           std::to_string(planner_.totals().partitionTimeouts);
    out += ",\"retries\":" + std::to_string(planner_.totals().retries);
    out += ",\"t_ms\":" + jsonNum(nowMs);
    out += "}";
    return out;
}

Response
PlanningService::makeShed(const Pending &pending, double nowMs,
                          const char *status, const char *reason) const
{
    Response response;
    response.id = pending.req.id;
    response.tMs = nowMs;
    response.status = status;
    response.reason = reason;
    response.latencyMs = nowMs - pending.arrivalMs;
    // An expired request got no answer at all — that is the strongest
    // degradation, and flagging it keeps the admission invariant
    // "answered in budget or flagged degraded" checkable per response.
    if (response.status == "expired")
        response.degraded = true;
    return response;
}

void
PlanningService::shedFlight(std::uint64_t seq, double nowMs,
                            const char *status, const char *reason)
{
    const auto it = pending_.find(seq);
    if (it == pending_.end())
        panic("PlanningService: shedding unknown request %llu",
              static_cast<unsigned long long>(seq));
    const Pending pending = it->second;
    pending_.erase(it);
    emit(makeShed(pending, nowMs, status, reason));
    if (!pending.leader)
        return;
    for (const std::uint64_t fseq :
         flight_.finish(pending.req.cacheKey())) {
        const auto fit = pending_.find(fseq);
        if (fit == pending_.end())
            continue;
        const Pending follower = fit->second;
        pending_.erase(fit);
        emit(makeShed(follower, nowMs, status, reason));
    }
}

void
PlanningService::onArrival(std::uint64_t seq, double nowMs)
{
    lastNowMs_ = std::max(lastNowMs_, nowMs);
    const auto it = pending_.find(seq);
    Pending &pending = it->second;
    const Request &req = pending.req;

    if (req.kind == Request::Kind::Stats) {
        emitLine(stats().toJson());
        pending_.erase(it);
        return;
    }
    if (req.kind == Request::Kind::Health) {
        emitLine(healthLine(nowMs));
        pending_.erase(it);
        return;
    }
    if (req.kind == Request::Kind::Metrics) {
        emitLine(metricsLine());
        pending_.erase(it);
        return;
    }

    if (!knownWorkload(req.workload)) {
        Response response;
        response.id = req.id;
        response.tMs = nowMs;
        response.status = "error";
        response.reason = "unknown_workload";
        emit(response);
        pending_.erase(it);
        return;
    }

    const std::string key = req.cacheKey();
    if (const Response *hit = cache_.get(key)) {
        Response response = *hit;
        response.id = req.id;
        response.tMs = nowMs;
        response.cacheOutcome = "hit";
        response.latencyMs = 0.0;
        response.retries = 0;
        response.backoffMs = 0.0;
        emit(response);
        pending_.erase(it);
        return;
    }

    if (flight_.inFlight(key)) {
        // Park on the in-flight leader; answered at its completion.
        flight_.attach(key, seq);
        return;
    }

    if (config_.ratePerSec > 0.0 &&
        !bucket_.tryAcquire(nowMs / 1000.0)) {
        emit(makeShed(pending, nowMs, "rejected", "rate_limit"));
        pending_.erase(it);
        return;
    }

    flight_.begin(key);
    pending.leader = true;

    if (busyWorkers_ < config_.workers) {
        dispatch({seq}, nowMs);
        return;
    }
    if (queue_.size() >= config_.queueCapacity) {
        if (config_.dropOldest) {
            const std::uint64_t victim = queue_.front();
            queue_.pop_front();
            shedFlight(victim, nowMs, "shed", "queue_full");
        } else {
            shedFlight(seq, nowMs, "shed", "queue_full");
            return;
        }
    }
    queue_.push_back(seq);
    counters_.maxQueueDepth =
        std::max<std::uint64_t>(counters_.maxQueueDepth, queue_.size());
    breaker_.noteQueueDepth(queue_.size(), nowMs);
}

void
PlanningService::drainQueue(double nowMs)
{
    while (busyWorkers_ < config_.workers && !queue_.empty()) {
        std::vector<std::uint64_t> batch{queue_.front()};
        queue_.pop_front();
        // Coalesce queued queries sharing this query's profile (same
        // fitted model, same candidate grid) onto one dispatch. Order
        // within the queue is preserved for everyone else.
        const std::string profile =
            planner_.profileKey(pending_.at(batch.front()).req);
        for (auto it = queue_.begin();
             it != queue_.end() &&
             batch.size() < static_cast<std::size_t>(config_.batchMax);) {
            const auto pit = pending_.find(*it);
            if (pit != pending_.end() &&
                planner_.profileKey(pit->second.req) == profile) {
                batch.push_back(*it);
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
        if (config_.batchMax > 1)
            batchWidth_.observe(static_cast<double>(batch.size()));
        dispatch(batch, nowMs);
    }
}

void
PlanningService::dispatch(const std::vector<std::uint64_t> &seqs,
                          double nowMs)
{
    // Per-member expiry screening; survivors share the worker slot,
    // each with what is left of its own deadline budget.
    std::vector<std::uint64_t> live;
    std::vector<Request> reqs;
    std::vector<DeadlineBudget> budgets;
    for (const std::uint64_t seq : seqs) {
        const Pending &pending = pending_.at(seq);
        const double timeout = timeoutFor(pending.req);
        const double waited = nowMs - pending.arrivalMs;
        queueWaitMs_.observe(waited);
        if (waited >= timeout) {
            shedFlight(seq, nowMs, "expired", "queue_wait");
            continue;
        }
        live.push_back(seq);
        reqs.push_back(pending.req);
        budgets.emplace_back(timeout - waited);
    }
    if (live.empty())
        return;

    // One profile, so one needModel/breaker verdict covers everyone.
    const bool needModel = !planner_.hasModel(pending_.at(live[0]).req);
    const bool allowSlow = breaker_.allowSlowPath(nowMs);
    if (needModel && !allowSlow) {
        for (const std::uint64_t seq : live)
            shedFlight(seq, nowMs, "shed", "circuit_open");
        return;
    }

    Event done;
    done.kind = Event::Kind::Completion;
    done.coalesced = seqs.size() >= 2;
    done.outcome = planner_.plan(reqs, budgets, allowSlow);
    done.tMs = nowMs + done.outcome.occupancyMs;
    done.order = nextOrder_++;
    done.probeClaimed =
        allowSlow && breaker_.state() == CircuitBreaker::State::HalfOpen;
    if (live.size() >= 2) {
        ++counters_.batches;
        counters_.batchedQueries += live.size();
    }
    done.members = std::move(live);
    ++busyWorkers_;
    events_.push(std::move(done));
}

void
PlanningService::onCompletion(const Event &event)
{
    lastNowMs_ = std::max(lastNowMs_, event.tMs);
    --busyWorkers_;

    // One worker slot, one breaker verdict for the whole dispatch.
    const Planner::Outcome &outcome = event.outcome;
    if (outcome.slowPathFailed)
        breaker_.recordFailure(event.tMs);
    else if (outcome.slowPathMs > 0.0)
        breaker_.recordSlowPath(outcome.slowPathMs, event.tMs);
    else if (event.probeClaimed)
        breaker_.releaseProbe();

    for (std::size_t i = 0; i < event.members.size(); ++i) {
        const auto it = pending_.find(event.members[i]);
        if (it == pending_.end())
            panic("PlanningService: completion for unknown request");
        const Pending pending = it->second;
        pending_.erase(it);

        Response response = outcome.responses[i];
        response.id = pending.req.id;
        response.tMs = event.tMs;
        response.latencyMs = event.tMs - pending.arrivalMs;
        response.cacheOutcome = "miss";
        // A shared sweep answers everyone when the *batch* finishes;
        // a member whose own deadline passed first still gets its
        // answer, flagged late (degraded), and never poisons the
        // result cache.
        if (event.coalesced && response.status == "ok" &&
            response.latencyMs > timeoutFor(pending.req))
            response.degraded = true;

        const std::string key = pending.req.cacheKey();
        if (response.status == "ok" && !response.degraded &&
            !response.modelOnly)
            cache_.put(key, response);
        emit(response);

        for (const std::uint64_t fseq : flight_.finish(key)) {
            const auto fit = pending_.find(fseq);
            if (fit == pending_.end())
                continue;
            const Pending follower = fit->second;
            pending_.erase(fit);
            Response fr = response;
            fr.id = follower.req.id;
            fr.latencyMs = event.tMs - follower.arrivalMs;
            fr.cacheOutcome = "dedup";
            fr.retries = 0;
            fr.backoffMs = 0.0;
            // A follower that waited past its own deadline still gets
            // the answer, flagged late.
            if (fr.status == "ok" &&
                fr.latencyMs > timeoutFor(follower.req))
                fr.degraded = true;
            emit(fr);
        }
    }

    drainQueue(event.tMs);
}

void
PlanningService::submit(const std::string &line,
                        std::optional<double> nowMs)
{
    ++counters_.received;
    try {
        const Request req = Request::parseLine(line);
        const std::uint64_t seq = nextSeq_++;
        Pending pending;
        pending.req = req;
        pending.arrivalMs = nowMs.value_or(req.atMs);
        Event arrival;
        arrival.tMs = pending.arrivalMs;
        arrival.order = nextOrder_++;
        arrival.kind = Event::Kind::Arrival;
        arrival.seq = seq;
        pending_.emplace(seq, std::move(pending));
        events_.push(std::move(arrival));
    } catch (const FatalError &error) {
        // An unparseable line carries no arrival time; a script
        // answers it before virtual time starts.
        warn("service: %s", error.what());
        Response response;
        response.tMs = nowMs.value_or(0.0);
        response.status = "error";
        response.reason = "bad_request";
        emit(response);
    }
}

std::vector<std::string>
PlanningService::drain()
{
    while (!events_.empty()) {
        const Event event = events_.top();
        events_.pop();
        if (event.kind == Event::Kind::Arrival)
            onArrival(event.seq, event.tMs);
        else
            onCompletion(event);
    }
    if (!pending_.empty())
        panic("PlanningService: %zu requests left unanswered",
              pending_.size());
    return std::exchange(transcript_, {});
}

std::vector<std::string>
PlanningService::runScript(const Script &script)
{
    for (const std::string &line : script) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        submit(line, std::nullopt);
    }
    return drain();
}

std::vector<std::string>
PlanningService::answerLine(const std::string &line, double nowMs)
{
    submit(line, nowMs);
    return drain();
}

ServiceStats
PlanningService::stats() const
{
    ServiceStats out = counters_;
    out.cacheHits = cache_.hits();
    out.cacheMisses = cache_.misses();
    out.cacheEvictions = cache_.evictions();
    out.dedupJoins = flight_.joins();
    const PlannerTotals &totals = planner_.totals();
    out.retries = totals.retries;
    out.backoffMsTotal = totals.backoffMsTotal;
    out.slowPathRuns = totals.slowPathRuns;
    out.slowPathMsTotal = totals.slowPathMsTotal;
    out.partitionTimeouts = totals.partitionTimeouts;
    out.slowPathTaskRetries = totals.slowPathTaskRetries;
    out.cellsMemoHit = totals.cellsMemoHit;
    out.cellsPruned = totals.cellsPruned;
    out.modelStoreHits = totals.modelStoreHits;
    out.breakerTrips = breaker_.trips();
    out.breakerState = breaker_.stateName();
    const std::uint64_t lookups = out.cacheHits + out.cacheMisses;
    out.cacheHitRatio =
        lookups ? static_cast<double>(out.cacheHits) /
                      static_cast<double>(lookups)
                : 0.0;
    out.breakerClosedMs =
        breaker_.timeInStateMs(CircuitBreaker::State::Closed, lastNowMs_);
    out.breakerOpenMs =
        breaker_.timeInStateMs(CircuitBreaker::State::Open, lastNowMs_);
    out.breakerHalfOpenMs = breaker_.timeInStateMs(
        CircuitBreaker::State::HalfOpen, lastNowMs_);
    out.queueDepth = queue_.size();
    if (!latencies_.empty()) {
        std::vector<double> sorted = latencies_;
        std::sort(sorted.begin(), sorted.end());
        out.p50LatencyMs = quantile(sorted, 0.50);
        out.p99LatencyMs = quantile(sorted, 0.99);
    }
    return out;
}

void
PlanningService::publishMetrics(telemetry::Registry &registry) const
{
    const ServiceStats s = stats();
    auto counter = [&registry](const char *name, const char *help,
                               std::uint64_t value) {
        registry.counter(name, help).inc(value);
    };
    counter("doppio_service_requests_total", "Request lines received",
            s.received);
    counter("doppio_service_completed_total",
            "Plan queries answered (ok or error)", s.completed);
    counter("doppio_service_ok_total", "Successful plan responses",
            s.ok);
    counter("doppio_service_degraded_total",
            "Responses flagged degraded", s.degraded);
    counter("doppio_service_model_only_total",
            "Responses with validation skipped", s.modelOnly);
    counter("doppio_service_shed_total",
            "Dropped by queue bound or breaker", s.shed);
    counter("doppio_service_rejected_total",
            "Denied by the token bucket", s.rejected);
    counter("doppio_service_expired_total",
            "Deadline passed while queued", s.expired);
    counter("doppio_service_errors_total", "Error responses",
            s.errors);
    counter("doppio_service_cache_hits_total", "Result-cache hits",
            s.cacheHits);
    counter("doppio_service_cache_misses_total",
            "Result-cache misses", s.cacheMisses);
    counter("doppio_service_cache_evictions_total",
            "Result-cache evictions", s.cacheEvictions);
    counter("doppio_service_dedup_joins_total",
            "Single-flight followers", s.dedupJoins);
    counter("doppio_service_retries_total",
            "Slow-path retry attempts", s.retries);
    counter("doppio_service_slow_path_runs_total",
            "Simulator runs (profile + validate)", s.slowPathRuns);
    counter("doppio_service_breaker_trips_total",
            "Closed/half-open to open transitions", s.breakerTrips);
    counter("doppio_service_batches_total",
            "Coalesced sweep dispatches (width >= 2)", s.batches);
    counter("doppio_service_batched_queries_total",
            "Plan queries served by coalesced sweeps",
            s.batchedQueries);
    counter("doppio_service_cells_memo_hit_total",
            "Grid cells served from the evaluation memo",
            s.cellsMemoHit);
    counter("doppio_service_cells_pruned_total",
            "Grid cells branch-and-bound never modeled",
            s.cellsPruned);
    counter("doppio_service_model_store_hits_total",
            "Profiling runs skipped via the model store",
            s.modelStoreHits);
    registry
        .gauge("doppio_service_cache_hit_ratio",
               "Result-cache hit fraction of lookups")
        .set(s.cacheHitRatio);
    registry
        .gauge("doppio_service_queue_depth",
               "Plan queries waiting for a worker")
        .set(static_cast<double>(s.queueDepth));
    registry
        .gauge("doppio_service_max_queue_depth",
               "High-water mark of the admission queue")
        .set(static_cast<double>(s.maxQueueDepth));
    registry
        .gauge("doppio_service_breaker_state",
               "0 = closed, 1 = open, 2 = half-open")
        .set(static_cast<double>(static_cast<int>(breaker_.state())));
    const std::pair<const char *, double> states[] = {
        {"closed", s.breakerClosedMs},
        {"open", s.breakerOpenMs},
        {"half_open", s.breakerHalfOpenMs},
    };
    for (const auto &[state, ms] : states) {
        registry
            .gauge("doppio_service_breaker_time_in_state_ms",
                   "Milliseconds spent per breaker state",
                   {{"state", state}})
            .set(ms);
    }
    registry
        .histogram("doppio_service_queue_wait_ms",
                   "Queue wait of dispatched plan queries", {}, 1e-3)
        .merge(queueWaitMs_);
    registry
        .histogram("doppio_service_batch_width",
                   "Width of queue-drain dispatches (batching on)", {},
                   1.0)
        .merge(batchWidth_);
}

std::string
PlanningService::metricsText() const
{
    telemetry::Registry registry;
    publishMetrics(registry);
    return registry.prometheusText();
}

std::string
PlanningService::metricsLine() const
{
    telemetry::Registry registry;
    publishMetrics(registry);
    std::string escaped;
    const std::string text = registry.prometheusText();
    escaped.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        default: escaped += c;
        }
    }
    std::string out = "{\"families\":" +
                      std::to_string(registry.familyCount());
    out += ",\"series\":" + std::to_string(registry.seriesCount());
    out += ",\"exposition\":\"" + escaped + "\"";
    out += "}";
    return out;
}

} // namespace doppio::service
