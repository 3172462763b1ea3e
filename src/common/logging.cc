#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace oova
{

std::string
vcsprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return std::string("<format error>");
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

bool
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", what,
                     path.c_str());
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "%s: short write to '%s'\n", what,
                     path.c_str());
    return ok;
}

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vcsprintf(fmt, args);
    va_end(args);
    return s;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace oova
