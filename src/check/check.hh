/**
 * @file
 * The invariant-audit framework: a registry of named checkers that
 * observe simulator state and report structural violations.
 *
 * The event-driven hot path (intrusive wakeup lists, the min-heap
 * event calendar, slab/sliding-queue storage, TLB accounting) is
 * correct only while a web of conservation laws holds — every
 * physical register is exactly one of free / mapped / pending-free,
 * subscription refcounts mirror the live ROB, no state transition
 * fires earlier than the calendar minimum. Debug asserts cover a few
 * of those laws; this subsystem makes the whole set checkable in
 * every build type, gem5-checker style: checkers are registered
 * against live simulator state and run at configurable granularity.
 *
 * Levels (OOVA_CHECK environment variable, or OooConfig::checkLevel):
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
#include <functional>
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
 * Audit level from the OOVA_CHECK environment variable (parsed once
 * per process): 0, 1 or 2. Unset means Off; anything else warns and
 * falls back to Off.
 */
CheckLevel levelFromEnv();

/** Human-readable level name ("off", "retire", "full"). */
const char *levelName(CheckLevel level);

/**
 * The sites a checker can be invoked from, as a bitmask. The
 * simulator decides which sites fire at which level; a checker
 * declares where it is meaningful (and affordable).
 */
enum Site : uint8_t
{
    /** After a cycle that retired at least one instruction. */
    kSiteRetire = 1u << 0,
    /** Every kAuditWindow simulated cycles (whole-state sweeps). */
    kSiteWindow = 1u << 1,
    /** Hot, targeted sites: idle jumps, memory reserves. */
    kSiteEvent = 1u << 2,
    /** Once when the simulation finishes (every level above Off). */
    kSiteEnd = 1u << 3,
};

/** Cycle spacing of the kSiteWindow sweeps at level Full. */
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
 * against the checker's id at the current audit cycle.
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
 * One simulation's set of registered checkers. Owned by the machine
 * being audited; not thread-safe (each sweep job owns its machine
 * and its registry), but violation reporting aggregates into a
 * thread-safe process tally.
 */
class Registry
{
  public:
    using CheckFn = std::function<void(Reporter &)>;

    /** Register a checker for the sites in @p sites. */
    void add(std::string id, uint8_t sites, CheckFn fn);

    /** Run every checker registered for @p site. */
    void runSite(Site site, Cycle now);

    /**
     * A reporter for inline push-style checks (sites too hot or too
     * value-laden for a pull-based checker, e.g. validating each
     * MemAccess as reserve returns it). @p checker must outlive the
     * reporter (string literals do).
     */
    Reporter
    reporter(const char *checker, Cycle now)
    {
        return Reporter(*this, checker, now);
    }

    size_t numCheckers() const { return checkers_.size(); }

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

    struct Checker
    {
        std::string id;
        uint8_t sites;
        CheckFn fn;
    };

    std::vector<Checker> checkers_;
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
