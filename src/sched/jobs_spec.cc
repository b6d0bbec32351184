#include "sched/jobs_spec.h"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace doppio::sched {

namespace {

/** Split one line into whitespace-separated tokens, dropping the
 *  `#`-comment tail. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token) {
        if (token[0] == '#')
            break;
        tokens.push_back(token);
    }
    return tokens;
}

/** Split "key=value"; @return true and fills both when '=' present. */
bool
keyValue(const std::string &token, std::string &key, std::string &value)
{
    const auto eq = token.find('=');
    if (eq == std::string::npos)
        return false;
    key = token.substr(0, eq);
    value = token.substr(eq + 1);
    return true;
}

/** Limits far beyond any real spec. They keep every arrival tick
 *  (start plus batches / rate, Poisson gaps included) inside the
 *  nanosecond clock and bound the input a stream registers up
 *  front. */
constexpr double kMaxStartSec = 1e7;
constexpr double kMinRatePerSec = 1e-4;
constexpr int kMaxBatches = 10000;
constexpr double kMaxBatchMib = 16384;
constexpr double kNoCap = std::numeric_limits<double>::infinity();

/** Parse a finite number in [@p lo, @p hi]; fatal() otherwise. */
double
parseNumber(const std::string &value, int lineNo, const char *what,
            double lo, double hi)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !std::isfinite(v))
        fatal("jobs-spec line %d: %s: not a finite number: '%s'", lineNo,
              what, value.c_str());
    if (v < lo || v > hi)
        fatal("jobs-spec line %d: %s must be in [%g, %g], got '%s'",
              lineNo, what, lo, hi, value.c_str());
    return v;
}

/** Parse a finite number in (0, @p hi]; fatal() otherwise. */
double
parsePositive(const std::string &value, int lineNo, const char *what,
              double hi)
{
    const double v = parseNumber(value, lineNo, what, -kNoCap, kNoCap);
    if (v <= 0.0 || v > hi)
        fatal("jobs-spec line %d: %s must be in (0, %g], got '%s'",
              lineNo, what, hi, value.c_str());
    return v;
}

/** Parse an integer in [@p lo, @p hi]; fatal() otherwise. */
int
parseInt(const std::string &value, int lineNo, const char *what, int lo,
         int hi)
{
    const double v = parseNumber(value, lineNo, what, lo, hi);
    if (v != std::floor(v))
        fatal("jobs-spec line %d: %s: not an integer: '%s'", lineNo,
              what, value.c_str());
    return static_cast<int>(v);
}

} // namespace

MultiJobSpec
MultiJobSpec::parse(const std::string &text)
{
    MultiJobSpec spec;
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty())
            continue;
        const std::string &directive = tokens[0];
        if (directive == "pool") {
            if (tokens.size() < 3)
                fatal("jobs-spec line %d: pool needs a name and a "
                      "mode: pool <name> fifo|fair [weight=W] "
                      "[minshare=N]",
                      lineNo);
            PoolConfig pool;
            pool.name = tokens[1];
            if (tokens[2] == "fifo")
                pool.fair = false;
            else if (tokens[2] == "fair")
                pool.fair = true;
            else
                fatal("jobs-spec line %d: pool mode must be fifo or "
                      "fair, got '%s'",
                      lineNo, tokens[2].c_str());
            for (std::size_t i = 3; i < tokens.size(); ++i) {
                std::string key, value;
                if (!keyValue(tokens[i], key, value))
                    fatal("jobs-spec line %d: unexpected token '%s'",
                          lineNo, tokens[i].c_str());
                if (key == "weight")
                    pool.weight =
                        parsePositive(value, lineNo, "weight", kNoCap);
                else if (key == "minshare")
                    pool.minShare = parseInt(value, lineNo, "minshare", 0,
                                             INT_MAX);
                else
                    fatal("jobs-spec line %d: unknown pool option "
                          "'%s'",
                          lineNo, key.c_str());
            }
            spec.pools.push_back(std::move(pool));
            continue;
        }
        if (directive == "job" || directive == "stream") {
            if (tokens.size() < 2)
                fatal("jobs-spec line %d: %s needs a workload name",
                      lineNo, directive.c_str());
            TenantSpec tenant;
            tenant.kind = directive == "job" ? TenantSpec::Kind::Batch
                                             : TenantSpec::Kind::Stream;
            tenant.workload = tokens[1];
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                std::string key, value;
                if (!keyValue(tokens[i], key, value)) {
                    if (tenant.kind == TenantSpec::Kind::Stream &&
                        tokens[i] == "poisson") {
                        tenant.stream.poisson = true;
                        continue;
                    }
                    fatal("jobs-spec line %d: unexpected token '%s'",
                          lineNo, tokens[i].c_str());
                }
                if (key == "pool") {
                    tenant.pool = value;
                } else if (key == "start") {
                    tenant.startSec =
                        parseNumber(value, lineNo, "start", 0.0,
                                    kMaxStartSec);
                } else if (tenant.kind == TenantSpec::Kind::Stream &&
                           key == "rate") {
                    tenant.stream.ratePerSec = parseNumber(
                        value, lineNo, "rate", kMinRatePerSec, kNoCap);
                } else if (tenant.kind == TenantSpec::Kind::Stream &&
                           key == "batches") {
                    tenant.stream.batches =
                        parseInt(value, lineNo, "batches", 1, kMaxBatches);
                } else if (tenant.kind == TenantSpec::Kind::Stream &&
                           key == "backlog") {
                    tenant.stream.maxBacklog =
                        parseInt(value, lineNo, "backlog", 1, INT_MAX);
                } else if (tenant.kind == TenantSpec::Kind::Stream &&
                           key == "slo") {
                    tenant.stream.sloSeconds =
                        parseNumber(value, lineNo, "slo", 0.0, kNoCap);
                } else if (tenant.kind == TenantSpec::Kind::Stream &&
                           key == "batch-mib") {
                    tenant.batchBytes = mib(parsePositive(
                        value, lineNo, "batch-mib", kMaxBatchMib));
                } else if (tenant.kind == TenantSpec::Kind::Stream &&
                           key == "checkpoint") {
                    // 0 = recover by full replay.
                    tenant.stream.checkpointIntervalSec = parseNumber(
                        value, lineNo, "checkpoint", 0.0, kNoCap);
                } else {
                    fatal("jobs-spec line %d: unknown %s option '%s'",
                          lineNo, directive.c_str(), key.c_str());
                }
            }
            spec.tenants.push_back(std::move(tenant));
            continue;
        }
        fatal("jobs-spec line %d: unknown directive '%s' (expected "
              "pool, job or stream)",
              lineNo, directive.c_str());
    }
    if (spec.tenants.empty())
        fatal("jobs-spec: no job or stream lines");
    return spec;
}

MultiJobSpec
MultiJobSpec::fromFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("jobs-spec: cannot read %s", path.c_str());
    std::ostringstream text;
    text << is.rdbuf();
    return parse(text.str());
}

} // namespace doppio::sched
