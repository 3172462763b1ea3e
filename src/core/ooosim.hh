/**
 * @file
 * The OOOVA simulator: out-of-order, register-renaming vector
 * architecture (paper sections 2.2, 5 and 6).
 *
 * Pipeline structure, as in the paper's figure 2: instructions flow
 * in order through Fetch and Decode/Rename, then into one of four
 * queues (A, S, V, M) from which they issue out of order, at most
 * one instruction per queue per cycle. Memory instructions first
 * traverse a 3-stage in-order pipeline (Issue/Rf, Range,
 * Dependence); afterwards they issue to memory out of order, subject
 * to range-based disambiguation. A 64-entry reorder buffer holding
 * only register names (never values) retires up to 4 instructions
 * per cycle.
 *
 * Commit models: the aggressive early-commit scheme releases a dead
 * physical register as soon as the redefining instruction begins
 * execution reaches the ROB head; the late-commit scheme (precise
 * traps, section 5) requires completion and executes stores only at
 * the ROB head.
 *
 * Dynamic load elimination (section 6): physical registers carry
 * memory tags; a load whose tag exactly matches some register is
 * satisfied by a rename-table update (vector) or a register copy
 * (scalar) instead of a memory access. In SLE+VLE mode all
 * vector-register instructions pass through the memory pipeline so
 * vector renaming happens at a single stage (figure 10).
 */

#ifndef OOVA_CORE_OOOSIM_HH
#define OOVA_CORE_OOOSIM_HH

#include "core/config.hh"
#include "mem/simresult.hh"
#include "trace/trace.hh"

namespace oova
{

/** Run @p trace through the OOOVA. */
SimResult simulateOoo(const Trace &trace, const OooConfig &cfg = {});

} // namespace oova

#endif // OOVA_CORE_OOOSIM_HH
