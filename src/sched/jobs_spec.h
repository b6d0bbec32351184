/**
 * @file
 * Text format describing a multi-tenant run (`--jobs-spec FILE`).
 *
 * Line-based, `#` starts a comment. Three directives:
 *
 *     pool <name> fifo|fair [weight=W] [minshare=N]
 *     job <workload> [pool=P] [start=T]
 *     stream <template> [rate=R] [batches=N] [backlog=K] [slo=S]
 *            [poisson] [batch-mib=M] [pool=P] [start=T]
 *            [checkpoint=T]
 *
 * `job` lines run one registered workload (lr-small, terasort, ...)
 * as a batch tenant; `stream` lines run a micro-batch streaming
 * tenant from a streaming template ("lr" or "agg"). `start=T` delays
 * the tenant's first submission by T simulated seconds. Tenants are
 * admitted in file order, which is also the FIFO order inside pools.
 *
 * Values must be finite and are range-checked at parse time: start in
 * [0, 1e7], weight > 0, minshare >= 0, rate >= 1e-4, batches in
 * [1, 10000], backlog >= 1, slo >= 0, batch-mib in (0, 16384] and
 * checkpoint >= 0.
 */

#ifndef DOPPIO_SCHED_JOBS_SPEC_H
#define DOPPIO_SCHED_JOBS_SPEC_H

#include <string>
#include <vector>

#include "common/units.h"
#include "sched/pool.h"
#include "sched/streaming.h"

namespace doppio::sched {

/** One tenant line of a jobs-spec file. */
struct TenantSpec
{
    enum class Kind { Batch, Stream };

    Kind kind = Kind::Batch;
    /** Registered workload name (Batch) or stream template (Stream). */
    std::string workload;
    std::string pool = "default";
    double startSec = 0.0; //!< delay of the first submission
    /** Stream only: arrival process and stability parameters. */
    StreamingOptions stream;
    /** Stream only: bytes of input per micro-batch (0 = template
     *  default). */
    Bytes batchBytes = 0;
};

/** A parsed jobs-spec file: pool definitions plus tenant lines. */
struct MultiJobSpec
{
    std::vector<PoolConfig> pools;
    std::vector<TenantSpec> tenants;

    /** Parse jobs-spec text; fatal() with line context on errors. */
    static MultiJobSpec parse(const std::string &text);

    /** Read and parse @p path; fatal() when unreadable. */
    static MultiJobSpec fromFile(const std::string &path);
};

} // namespace doppio::sched

#endif // DOPPIO_SCHED_JOBS_SPEC_H
