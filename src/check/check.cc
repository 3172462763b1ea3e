#include "check/check.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <mutex>

#include "common/logging.hh"

namespace oova::check
{

namespace
{

/**
 * Process-wide violation tally and the stderr print lock. Sweep
 * workers audit their machines concurrently; each registry is
 * single-threaded but the aggregate count and the report stream are
 * shared.
 */
std::atomic<uint64_t> processViolations{0};
std::mutex reportMutex;

CheckLevel
parseLevel(const char *text)
{
    if (!text || !*text)
        return CheckLevel::Off;
    if (text[1] == '\0') {
        switch (text[0]) {
          case '0':
            return CheckLevel::Off;
          case '1':
            return CheckLevel::Retire;
          case '2':
            return CheckLevel::Full;
          default:
            break;
        }
    }
    warn("OOVA_CHECK=%s is not 0, 1 or 2; audits stay off", text);
    return CheckLevel::Off;
}

} // namespace

CheckLevel
levelFor(int config_level)
{
    if (config_level >= 0)
        return static_cast<CheckLevel>(std::min(config_level, 2));
    static const CheckLevel env = parseLevel(getenv("OOVA_CHECK"));
    return env;
}

void
Reporter::fail(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    reg_.record(checker_, now_, buf);
}

void
Registry::record(const char *checker, Cycle now, const char *detail)
{
    ++violationCount_;
    processViolations.fetch_add(1, std::memory_order_relaxed);

    // Print immediately: if the broken invariant later crashes the
    // simulation, the evidence is already out. One line, one lock
    // acquisition, so concurrent sweep workers interleave cleanly.
    std::lock_guard<std::mutex> lock(reportMutex);
    fprintf(stderr,
            "OOVA-CHECK VIOLATION cycle=%llu checker=%s detail=%s\n",
            static_cast<unsigned long long>(now), checker, detail);
}

uint64_t
processViolationCount()
{
    return processViolations.load(std::memory_order_relaxed);
}

int
processExitCode()
{
    return processViolationCount() ? 3 : 0;
}

void
resetProcessViolations()
{
    processViolations.store(0, std::memory_order_relaxed);
}

} // namespace oova::check
