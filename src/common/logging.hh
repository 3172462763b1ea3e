/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal simulator bug; aborts (may dump core).
 * fatal()  - a user error (bad configuration); exits with status 1.
 * warn()   - something suspicious that the run survives.
 * inform() - plain status output.
 */

#ifndef OOVA_COMMON_LOGGING_HH
#define OOVA_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace oova
{

/** printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vcsprintf(const char *fmt, va_list args);

/**
 * Write @p text to @p path, replacing the file. The file is closed
 * on every path; on failure a "<what>: ..." line goes to stderr and
 * the result is false.
 */
bool writeTextFile(const std::string &path, const std::string &text,
                   const char *what);

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

namespace detail
{

[[noreturn]] inline void
panicFmt(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    panicImpl(file, line, msg);
}

[[noreturn]] inline void
fatalFmt(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    fatalImpl(file, line, msg);
}

} // namespace detail

#define panic(...) \
    ::oova::detail::panicFmt(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...) \
    ::oova::detail::fatalFmt(__FILE__, __LINE__, __VA_ARGS__)

#define warn(...) \
    ::oova::warnImpl(::oova::csprintf(__VA_ARGS__))

#define inform(...) \
    ::oova::informImpl(::oova::csprintf(__VA_ARGS__))

/**
 * Invariant check that stays on in release builds.
 * Usage: sim_assert(cond, "message %d", value);
 */
#define sim_assert(cond, ...)                                          \
    do {                                                               \
        if (!(cond))                                                   \
            ::oova::detail::panicFmt(__FILE__, __LINE__,               \
                                     "assertion '" #cond "' failed: " \
                                     __VA_ARGS__);                     \
    } while (0)

} // namespace oova

#endif // OOVA_COMMON_LOGGING_HH
