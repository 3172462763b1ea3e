/**
 * @file
 * Trace-level statistics: the columns of the paper's Table 2 (basic
 * operation counts, percentage of vectorization, average vector
 * length) and Table 3 (vector memory spill operations).
 */

#ifndef OOVA_TRACE_TRACE_STATS_HH
#define OOVA_TRACE_TRACE_STATS_HH

#include <cstdint>

#include "trace/trace.hh"

namespace oova
{

/** Aggregate statistics over one trace. */
struct TraceStats
{
    uint64_t scalarInsts = 0; ///< non-vector instructions
    uint64_t vectorInsts = 0; ///< vector instructions
    uint64_t vectorOps = 0;   ///< sum of vector lengths

    // Vector memory operation census, in *operations* (words moved),
    // split into spill and non-spill as in Table 3.
    uint64_t vecLoadOps = 0;
    uint64_t vecSpillLoadOps = 0;
    uint64_t vecStoreOps = 0;
    uint64_t vecSpillStoreOps = 0;

    // Scalar memory census (instruction == operation for scalars).
    uint64_t scalarLoads = 0;
    uint64_t scalarSpillLoads = 0;
    uint64_t scalarStores = 0;
    uint64_t scalarSpillStores = 0;

    uint64_t branches = 0;

    /**
     * Percentage of vectorization as defined under Table 2: vector
     * operations over (scalar instructions + vector operations).
     */
    double
    vectorization() const
    {
        double denom = static_cast<double>(scalarInsts + vectorOps);
        return denom > 0 ? 100.0 * vectorOps / denom : 0.0;
    }

    /** Average vector length of vector instructions. */
    double
    avgVectorLength() const
    {
        return vectorInsts
                   ? static_cast<double>(vectorOps) / vectorInsts
                   : 0.0;
    }

    /** Fraction of vector memory traffic that is spill traffic. */
    double
    spillTrafficFraction() const
    {
        uint64_t total = vecLoadOps + vecSpillLoadOps + vecStoreOps +
                         vecSpillStoreOps;
        return total ? static_cast<double>(vecSpillLoadOps +
                                           vecSpillStoreOps) /
                           total
                     : 0.0;
    }

    /** Compute statistics for a trace in one pass. */
    static TraceStats compute(const Trace &trace);
};

} // namespace oova

#endif // OOVA_TRACE_TRACE_STATS_HH
