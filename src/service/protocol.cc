#include "service/protocol.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace doppio::service {

namespace {

/** One flat JSON value: string, number or boolean. */
struct JsonValue
{
    enum class Kind { Str, Num, Bool } kind = Kind::Str;
    std::string str;
    double num = 0.0;
    bool b = false;
};

/**
 * Parse a flat JSON object {"key": value, ...} of string/number/bool
 * fields. fatal() with a position on anything else — the protocol has
 * no nested objects or arrays, so their absence is a feature: a
 * malformed request cannot half-parse into a plausible query.
 */
std::map<std::string, JsonValue>
parseFlatObject(const std::string &line)
{
    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    const auto fail = [&](const char *what) {
        fatal("request: %s at offset %zu in '%s'", what, i,
              line.c_str());
    };
    const auto parseString = [&]() -> std::string {
        if (line[i] != '"')
            fail("expected string");
        ++i;
        std::string out;
        while (i < line.size() && line[i] != '"') {
            char c = line[i];
            if (c == '\\') {
                if (i + 1 >= line.size())
                    fail("truncated escape");
                const char esc = line[++i];
                switch (esc) {
                case '"': c = '"'; break;
                case '\\': c = '\\'; break;
                case '/': c = '/'; break;
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                default: fail("unsupported escape");
                }
            }
            out.push_back(c);
            ++i;
        }
        if (i >= line.size())
            fail("unterminated string");
        ++i; // closing quote
        return out;
    };

    std::map<std::string, JsonValue> fields;
    skipWs();
    if (i >= line.size() || line[i] != '{')
        fail("expected '{'");
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}') {
        ++i;
    } else {
        for (;;) {
            skipWs();
            const std::string key = parseString();
            skipWs();
            if (i >= line.size() || line[i] != ':')
                fail("expected ':'");
            ++i;
            skipWs();
            if (i >= line.size())
                fail("missing value");
            JsonValue value;
            if (line[i] == '"') {
                value.kind = JsonValue::Kind::Str;
                value.str = parseString();
            } else if (line.compare(i, 4, "true") == 0) {
                value.kind = JsonValue::Kind::Bool;
                value.b = true;
                i += 4;
            } else if (line.compare(i, 5, "false") == 0) {
                value.kind = JsonValue::Kind::Bool;
                value.b = false;
                i += 5;
            } else {
                char *end = nullptr;
                value.kind = JsonValue::Kind::Num;
                value.num = std::strtod(line.c_str() + i, &end);
                if (end == line.c_str() + i)
                    fail("expected value");
                i = static_cast<std::size_t>(end - line.c_str());
            }
            if (fields.count(key))
                fatal("request: duplicate key \"%s\"", key.c_str());
            fields.emplace(key, value);
            skipWs();
            if (i < line.size() && line[i] == ',') {
                ++i;
                continue;
            }
            if (i < line.size() && line[i] == '}') {
                ++i;
                break;
            }
            fail("expected ',' or '}'");
        }
    }
    skipWs();
    if (i != line.size())
        fail("trailing characters");
    return fields;
}

double
numField(const std::map<std::string, JsonValue> &fields,
         const std::string &key, double fallback, double lo, double hi)
{
    const auto it = fields.find(key);
    if (it == fields.end())
        return fallback;
    if (it->second.kind != JsonValue::Kind::Num)
        fatal("request: \"%s\" must be a number", key.c_str());
    const double value = it->second.num;
    if (value < lo || value > hi)
        fatal("request: \"%s\" = %g out of range [%g, %g]", key.c_str(),
              value, lo, hi);
    return value;
}

std::string
strField(const std::map<std::string, JsonValue> &fields,
         const std::string &key, const std::string &fallback)
{
    const auto it = fields.find(key);
    if (it == fields.end())
        return fallback;
    if (it->second.kind != JsonValue::Kind::Str)
        fatal("request: \"%s\" must be a string", key.c_str());
    return it->second.str;
}

} // namespace

std::string
jsonNum(double value)
{
    std::ostringstream os;
    os.precision(6);
    os << value;
    return os.str();
}

const char *
Request::modeName(Mode mode)
{
    switch (mode) {
    case Mode::MinCost: return "min-cost";
    case Mode::CheapestUnderDeadline: return "cheapest";
    case Mode::FastestUnderBudget: return "fastest";
    }
    return "?";
}

Request
Request::parseLine(const std::string &line)
{
    static const char *const kKnown[] = {
        "cmd",        "id",      "workload",   "mode",
        "deadline_s", "budget_usd", "workers", "timeout_ms",
        "at_ms",
    };
    if (line.size() > kMaxLineBytes)
        fatal("request: line longer than %zu bytes", kMaxLineBytes);
    const auto fields = parseFlatObject(line);
    for (const auto &[key, value] : fields) {
        (void)value;
        bool known = false;
        for (const char *name : kKnown)
            known = known || key == name;
        if (!known)
            fatal("request: unknown key \"%s\"", key.c_str());
    }

    Request req;
    req.id = strField(fields, "id", "");
    req.atMs = numField(fields, "at_ms", 0.0, 0.0, 1e12);

    const std::string cmd = strField(fields, "cmd", "");
    if (!cmd.empty()) {
        if (cmd == "stats")
            req.kind = Kind::Stats;
        else if (cmd == "health")
            req.kind = Kind::Health;
        else if (cmd == "metrics")
            req.kind = Kind::Metrics;
        else
            fatal("request: unknown cmd \"%s\" "
                  "(stats|health|metrics)",
                  cmd.c_str());
        return req;
    }

    req.kind = Kind::Plan;
    if (req.id.empty())
        fatal("request: plan query needs an \"id\"");
    req.workload = strField(fields, "workload", "");
    if (req.workload.empty())
        fatal("request: plan query needs a \"workload\"");
    req.deadlineSec = numField(fields, "deadline_s", 0.0, 0.0, 1e9);
    req.budgetUsd = numField(fields, "budget_usd", 0.0, 0.0, 1e9);
    req.workers =
        static_cast<int>(numField(fields, "workers", 0.0, 0.0, 1024.0));
    req.timeoutMs = numField(fields, "timeout_ms", 0.0, 0.0, 1e9);

    const std::string mode = strField(fields, "mode", "");
    if (mode.empty()) {
        // Infer from the constraint present; both at once is ambiguous.
        if (req.deadlineSec > 0.0 && req.budgetUsd > 0.0)
            fatal("request: both deadline_s and budget_usd given — "
                  "set \"mode\" explicitly");
        req.mode = req.deadlineSec > 0.0 ? Mode::CheapestUnderDeadline
                   : req.budgetUsd > 0.0 ? Mode::FastestUnderBudget
                                         : Mode::MinCost;
    } else if (mode == "min-cost") {
        req.mode = Mode::MinCost;
    } else if (mode == "cheapest") {
        req.mode = Mode::CheapestUnderDeadline;
    } else if (mode == "fastest") {
        req.mode = Mode::FastestUnderBudget;
    } else {
        fatal("request: unknown mode \"%s\" "
              "(min-cost|cheapest|fastest)",
              mode.c_str());
    }
    if (req.mode == Mode::CheapestUnderDeadline && req.deadlineSec <= 0.0)
        fatal("request: mode \"cheapest\" needs deadline_s > 0");
    if (req.mode == Mode::FastestUnderBudget && req.budgetUsd <= 0.0)
        fatal("request: mode \"fastest\" needs budget_usd > 0");
    return req;
}

std::string
Request::cacheKey() const
{
    std::string key = workload;
    key += '|';
    key += modeName(mode);
    key += '|';
    key += jsonNum(mode == Mode::CheapestUnderDeadline ? deadlineSec
                   : mode == Mode::FastestUnderBudget  ? budgetUsd
                                                       : 0.0);
    key += "|w";
    key += std::to_string(workers);
    return key;
}

std::string
Response::toJson() const
{
    std::string out = "{\"id\":\"" + id + "\"";
    out += ",\"t_ms\":" + jsonNum(tMs);
    out += ",\"status\":\"" + status + "\"";
    if (!reason.empty())
        out += ",\"reason\":\"" + reason + "\"";
    if (!cacheOutcome.empty())
        out += ",\"cache\":\"" + cacheOutcome + "\"";
    if (haveConfig) {
        out += ",\"config\":\"" + config + "\"";
        out += ",\"cost_usd\":" + jsonNum(costUsd);
        out += ",\"runtime_s\":" + jsonNum(runtimeSec);
    }
    out += ",\"degraded\":";
    out += degraded ? "true" : "false";
    out += ",\"model_only\":";
    out += modelOnly ? "true" : "false";
    out += ",\"cells_done\":" + std::to_string(cellsDone);
    out += ",\"cells_total\":" + std::to_string(cellsTotal);
    out += ",\"retries\":" + std::to_string(retries);
    out += ",\"backoff_ms\":" + jsonNum(backoffMs);
    out += ",\"latency_ms\":" + jsonNum(latencyMs);
    out += "}";
    return out;
}

std::string
ServiceStats::toJson() const
{
    std::string out = "{\"received\":" + std::to_string(received);
    out += ",\"completed\":" + std::to_string(completed);
    out += ",\"ok\":" + std::to_string(ok);
    out += ",\"degraded\":" + std::to_string(degraded);
    out += ",\"model_only\":" + std::to_string(modelOnly);
    out += ",\"shed\":" + std::to_string(shed);
    out += ",\"rejected\":" + std::to_string(rejected);
    out += ",\"expired\":" + std::to_string(expired);
    out += ",\"errors\":" + std::to_string(errors);
    out += ",\"cache_hits\":" + std::to_string(cacheHits);
    out += ",\"cache_misses\":" + std::to_string(cacheMisses);
    out += ",\"dedup_joins\":" + std::to_string(dedupJoins);
    out += ",\"cache_evictions\":" + std::to_string(cacheEvictions);
    out += ",\"cache_hit_ratio\":" + jsonNum(cacheHitRatio);
    out += ",\"retries\":" + std::to_string(retries);
    out += ",\"backoff_ms_total\":" + jsonNum(backoffMsTotal);
    out += ",\"slow_path_runs\":" + std::to_string(slowPathRuns);
    out += ",\"slow_path_ms_total\":" + jsonNum(slowPathMsTotal);
    out += ",\"partition_timeouts\":" + std::to_string(partitionTimeouts);
    out += ",\"slow_path_task_retries\":" +
           std::to_string(slowPathTaskRetries);
    out += ",\"batches\":" + std::to_string(batches);
    out += ",\"batched_queries\":" + std::to_string(batchedQueries);
    out += ",\"cells_memo_hit\":" + std::to_string(cellsMemoHit);
    out += ",\"cells_pruned\":" + std::to_string(cellsPruned);
    out += ",\"model_store_hits\":" + std::to_string(modelStoreHits);
    out += ",\"breaker_trips\":" + std::to_string(breakerTrips);
    out += ",\"breaker_state\":\"" + breakerState + "\"";
    out += ",\"breaker_closed_ms\":" + jsonNum(breakerClosedMs);
    out += ",\"breaker_open_ms\":" + jsonNum(breakerOpenMs);
    out += ",\"breaker_half_open_ms\":" + jsonNum(breakerHalfOpenMs);
    out += ",\"queue_depth\":" + std::to_string(queueDepth);
    out += ",\"max_queue_depth\":" + std::to_string(maxQueueDepth);
    out += ",\"p50_latency_ms\":" + jsonNum(p50LatencyMs);
    out += ",\"p99_latency_ms\":" + jsonNum(p99LatencyMs);
    out += "}";
    return out;
}

} // namespace doppio::service
