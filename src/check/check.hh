/**
 * @file
 * The invariant-audit framework: named checkers that observe
 * simulator state and report structural violations to a per-run
 * Registry.
 *
 * The event-driven hot path (intrusive wakeup lists, the timing-wheel
 * event calendar, slab/sliding-queue storage, TLB accounting) is
 * correct only while a web of conservation laws holds — every
 * physical register is exactly one of free / mapped / pending-free,
 * subscription refcounts mirror the live ROB, no state transition
 * fires earlier than the calendar minimum. Debug asserts cover a few
 * of those laws; this subsystem makes the whole set checkable in
 * every build type, gem5-checker style. Each simulator calls its
 * checkers (the free functions of checkers.hh) directly at the points
 * its audit level selects, handing each one a Reporter named after
 * the checker; the Registry only collects what they report.
 *
 * Levels (OOVA_CHECK environment variable, or a config's checkLevel;
 * see levelFor()):
 *
 *   0 (Off)    no checkers run; zero overhead beyond one branch.
 *   1 (Retire) cheap per-retire checks plus a full end-of-run audit.
 *   2 (Full)   everything: per-event checks (calendar validation at
 *              idle jumps, memory-window checks at reserve),
 *              periodic whole-state sweeps (every kAuditWindow
 *              cycles), per-retire checks, end-of-run audit.
 *
 * Checkers are strictly observe-only: simulated timing and figure
 * output are byte-identical at any level. A violation prints one
 * structured line to stderr (cycle, checker id, detail), is recorded
 * in the owning registry's report, and bumps a process-wide tally
 * that the bench drivers turn into a non-zero exit code.
 */

#ifndef OOVA_CHECK_CHECK_HH
#define OOVA_CHECK_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace oova::check
{

/** How much auditing runs (see file comment). */
enum class CheckLevel : uint8_t
{
    Off = 0,
    Retire = 1,
    Full = 2,
};

/**
 * The level a machine audits at: @p config_level (a config's
 * checkLevel) when it is 0 or more, capped at Full. A negative one
 * inherits OOVA_CHECK (parsed once per process): 0, 1 or 2; unset
 * means Off, and anything else warns and falls back to Off.
 */
CheckLevel levelFor(int config_level);

/** Cycle spacing of the whole-state sweeps at level Full. */
constexpr Cycle kAuditWindow = 256;

/** One recorded invariant violation. */
struct Violation
{
    Cycle cycle = 0;
    std::string checker;
    std::string detail;
};

class Registry;

/**
 * Handed to a checker while it runs; fail() records one violation
 * against the checker's id at the audit cycle it was made for.
 */
class Reporter
{
  public:
    /** printf-style violation detail. */
    void fail(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    Cycle now() const { return now_; }

  private:
    friend class Registry;
    Reporter(Registry &reg, const char *checker, Cycle now)
        : reg_(reg), checker_(checker), now_(now)
    {
    }

    Registry &reg_;
    const char *checker_;
    Cycle now_;
};

/**
 * One simulation's violation sink. Owned by the machine being
 * audited; not thread-safe (each sweep job owns its machine and its
 * registry), but violation reporting aggregates into a thread-safe
 * process tally.
 */
class Registry
{
  public:
    /**
     * A reporter for one run of checker @p checker at cycle @p now.
     * @p checker must outlive the reporter (string literals do).
     */
    Reporter
    reporter(const char *checker, Cycle now)
    {
        return Reporter(*this, checker, now);
    }

    uint64_t violationCount() const { return violationCount_; }
    /** Recorded violations (capped at kMaxStored; the count is not). */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /**
     * The structured report: one "cycle=... checker=... detail=..."
     * line per recorded violation under a summary header; empty
     * string when the audit is clean.
     */
    std::string report() const;

    /** Stored-violation cap, so a hot broken invariant can't OOM. */
    static constexpr size_t kMaxStored = 64;

  private:
    friend class Reporter;
    void record(const char *checker, Cycle now, std::string detail);

    std::vector<Violation> violations_;
    uint64_t violationCount_ = 0;
};

/**
 * Process-wide violation tally, aggregated across every registry
 * (sweep workers run many machines concurrently). The bench drivers
 * map a non-zero tally to a non-zero exit code.
 */
uint64_t processViolationCount();

/** Exit code for the current tally: 0 clean, 3 on violations. */
int processExitCode();

/** Reset the tally (tests only). */
void resetProcessViolations();

} // namespace oova::check

#endif // OOVA_CHECK_CHECK_HH
