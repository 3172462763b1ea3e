/**
 * @file
 * Configurable functional-unit latencies (the paper's Table 1).
 *
 * The scanned paper's Table 1 is partially illegible, so these are
 * reconstructed defaults consistent with the legible fragments
 * ("write x-bar 1|2", "3 4/9" patterns) and with Convex C34xx
 * descriptions in the authors' related work. Everything is a knob;
 * `oova_bench tab1` prints the values in force.
 */

#ifndef OOVA_ISA_LATENCY_HH
#define OOVA_ISA_LATENCY_HH

#include "isa/opcodes.hh"

namespace oova
{

/** Cycle counts for each latency class plus crossbar/startup costs. */
struct LatencyTable
{
    unsigned readXbar = 1;        ///< register-file read crossbar
    unsigned writeXbarVector = 2; ///< vector write crossbar
    unsigned writeXbarScalar = 1; ///< scalar write path
    unsigned vectorStartup = 1;   ///< 1 in REF, 0 in OOOVA (Table 1 *)
    unsigned moveLat = 1;
    unsigned addLogic = 3;        ///< add / logic / shift / compare
    unsigned mul = 4;
    unsigned divSqrt = 9;
    unsigned memLatency = 50;     ///< main memory latency (swept)
    unsigned branchMispredict = 3;///< REF taken-branch / OOOVA redirect

    /** Execution latency of an op, excluding crossbars and memory. */
    unsigned
    opLatency(Opcode op) const
    {
        switch (traits(op).lat) {
        case LatClass::Move:
            return moveLat;
        case LatClass::AddLogic:
            return addLogic;
        case LatClass::Mul:
            return mul;
        case LatClass::DivSqrt:
            return divSqrt;
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

} // namespace oova

#endif // OOVA_ISA_LATENCY_HH
