/**
 * @file
 * Functional-unit latencies (the paper's Table 1).
 *
 * The scanned paper's Table 1 is partially illegible, so these are
 * reconstructed defaults consistent with the legible fragments
 * ("write x-bar 1|2", "3 4/9" patterns) and with Convex C34xx
 * descriptions in the authors' related work. The crossbar and
 * execution latencies are fixed; the vector startup differs between
 * the machines, and the memory latency and branch penalty are
 * configurable. `oova_bench tab1` prints the values in force.
 */

#ifndef OOVA_ISA_LATENCY_HH
#define OOVA_ISA_LATENCY_HH

#include "common/configwalk.hh"
#include "isa/opcodes.hh"

namespace oova
{

constexpr unsigned kReadXbar = 1;        ///< register-file read crossbar
constexpr unsigned kWriteXbarVector = 2; ///< vector write crossbar
constexpr unsigned kWriteXbarScalar = 1; ///< scalar write path
constexpr unsigned kMoveLat = 1;
constexpr unsigned kAddLogicLat = 3; ///< add / logic / shift / compare
constexpr unsigned kMulLat = 4;
constexpr unsigned kDivSqrtLat = 9;

/** The per-machine latencies: startup, memory and branch penalty. */
struct LatencyTable
{
    unsigned vectorStartup = 1;   ///< 1 in REF, 0 in OOOVA (Table 1 *)
    unsigned memLatency = 50;     ///< main memory latency (swept)
    unsigned branchMispredict = 3;///< REF taken-branch / OOOVA redirect

    /** Execution latency of an op, excluding crossbars and memory. */
    unsigned
    opLatency(Opcode op) const
    {
        switch (traits(op).lat) {
        case LatClass::Move:
            return kMoveLat;
        case LatClass::AddLogic:
            return kAddLogicLat;
        case LatClass::Mul:
            return kMulLat;
        case LatClass::DivSqrt:
            return kDivSqrtLat;
        case LatClass::Mem:
            return memLatency;
        }
        return 1;
    }

    /** The defaults used for the reference (in-order) machine. */
    static LatencyTable
    refDefaults()
    {
        LatencyTable t;
        t.vectorStartup = 1;
        return t;
    }

    /** The defaults used for the OOOVA. */
    static LatencyTable
    oooDefaults()
    {
        LatencyTable t;
        t.vectorStartup = 0;
        return t;
    }
};

/** Every LatencyTable member, named once (see common/configwalk.hh). */
template <ConfigOf<LatencyTable> Lat, typename Visitor>
void
walkConfig(Lat &lat, Visitor &v)
{
    v.field("vectorStartup", lat.vectorStartup);
    v.field("memLatency", lat.memLatency);
    v.field("branchMispredict", lat.branchMispredict);
}

} // namespace oova

#endif // OOVA_ISA_LATENCY_HH
