#include "harness/figure.hh"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "harness/backend.hh"

namespace oova
{

const FigureDef *
findFigure(const std::string &name)
{
    for (const auto &fig : figureRegistry())
        if (name == fig.name)
            return &fig;
    return nullptr;
}

std::string
renderFigureText(const FigureDef &fig, const FigureResult &result,
                 double scale)
{
    std::ostringstream os;
    os << "== " << fig.title << " ==\n";
    if (result.showScale)
        os << csprintf("trace scale: %.2f (set OOVA_SCALE to "
                       "change)\n",
                       scale);
    os << "\n";
    for (const auto &sec : result.sections) {
        if (!sec.heading.empty())
            os << sec.heading << "\n";
        os << sec.table.str() << "\n";
    }
    if (!result.footnote.empty())
        os << result.footnote << "\n";
    return os.str();
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
jsonStringArray(std::ostringstream &os,
                const std::vector<std::string> &items)
{
    os << "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << jsonEscape(items[i]) << "\"";
    }
    os << "]";
}

/**
 * Wall times are genuinely fractional and non-deterministic; a fixed
 * precision keeps the envelope stable in shape if not in value.
 */
void
jsonManifest(std::ostringstream &os, const RunManifest &manifest)
{
    os << "  \"manifest\": {\n";
    os << "    \"schemaVersion\": " << RunManifest::kSchemaVersion
       << ",\n";
    os << "    \"resultSchemaVersion\": "
       << manifest.resultSchemaVersion << ",\n";
    os << "    \"scale\": " << manifest.scale << ",\n";
    os << "    \"threads\": " << manifest.threads << ",\n";
    os << "    \"backend\": \"" << jsonEscape(manifest.backend)
       << "\",\n";
    os << csprintf("    \"wallMs\": %.3f,\n", manifest.wallMs);
    if (manifest.hasStore) {
        const StoreStats &s = manifest.store;
        os << csprintf("    \"store\": {\"hits\": %llu, "
                       "\"misses\": %llu, \"stores\": %llu, "
                       "\"bytesRead\": %llu, "
                       "\"bytesWritten\": %llu, "
                       "\"evictions\": %llu, "
                       "\"quarantined\": %llu},\n",
                       static_cast<unsigned long long>(s.hits),
                       static_cast<unsigned long long>(s.misses),
                       static_cast<unsigned long long>(s.stores),
                       static_cast<unsigned long long>(s.bytesRead),
                       static_cast<unsigned long long>(
                           s.bytesWritten),
                       static_cast<unsigned long long>(s.evictions),
                       static_cast<unsigned long long>(
                           s.quarantined));
    }
    os << "    \"jobs\": [";
    for (size_t i = 0; i < manifest.jobs.size(); ++i) {
        const JobRecord &job = manifest.jobs[i];
        os << (i ? ",\n      " : "\n      ");
        os << "{\"program\": \"" << jsonEscape(job.program)
           << "\", \"machine\": \"" << jsonEscape(job.machine)
           << "\", " << csprintf("\"wallMs\": %.3f, ", job.wallMs)
           << "\"cached\": " << (job.cached ? "true" : "false")
           << "}";
    }
    os << (manifest.jobs.empty() ? "]\n" : "\n    ]\n");
    os << "  },\n";
}

} // namespace

std::string
renderFigureJson(const FigureDef &fig, const FigureResult &result,
                 double scale, unsigned threads,
                 const RunManifest *manifest)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"figure\": \"" << jsonEscape(fig.name) << "\",\n";
    os << "  \"title\": \"" << jsonEscape(fig.title) << "\",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"threads\": " << threads << ",\n";
    if (manifest)
        jsonManifest(os, *manifest);
    os << "  \"sections\": [\n";
    for (size_t s = 0; s < result.sections.size(); ++s) {
        const auto &sec = result.sections[s];
        os << "    {\n";
        os << "      \"heading\": \"" << jsonEscape(sec.heading)
           << "\",\n";
        os << "      \"headers\": ";
        jsonStringArray(os, sec.table.headers());
        os << ",\n";
        os << "      \"rows\": [\n";
        const auto &rows = sec.table.rows();
        for (size_t r = 0; r < rows.size(); ++r) {
            os << "        ";
            jsonStringArray(os, rows[r]);
            os << (r + 1 < rows.size() ? ",\n" : "\n");
        }
        os << "      ]\n";
        os << "    }" << (s + 1 < result.sections.size() ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

namespace
{

/**
 * Match argv[i] against a value-taking @p flag, accepting both the
 * "--flag value" and "--flag=value" spellings. Returns 1 with
 * @p value set (advancing @p i past a separate value), 0 when
 * argv[i] is some other flag, -1 when the value is missing.
 */
int
takeValue(int argc, char **argv, int &i, const char *flag,
          const char **value)
{
    const char *arg = argv[i];
    size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return 0;
    if (arg[n] == '=') {
        *value = arg + n + 1;
        return 1;
    }
    if (arg[n] != '\0')
        return 0; // longer flag sharing the prefix, e.g. --store-stats
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return -1;
    }
    *value = argv[++i];
    return 1;
}

} // namespace

int
parseCommonFlag(int argc, char **argv, int &i, FigureOptions &opts)
{
    const char *arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
        opts.json = true;
        return 1;
    }
    if (std::strcmp(arg, "--progress") == 0) {
        opts.progress = true;
        return 1;
    }
    if (std::strcmp(arg, "--store-stats") == 0) {
        opts.storeStats = true;
        return 1;
    }
    if (std::strcmp(arg, "--store-fsync") == 0) {
        opts.storeFsync = true;
        return 1;
    }
    const char *val = nullptr;
    int r;
    if ((r = takeValue(argc, argv, i, "--threads", &val)) != 0) {
        if (r < 0)
            return -1;
        // strtoul silently wraps negative input ("-3" becomes a huge
        // unsigned), so insist on digits and a sane ceiling.
        char *end = nullptr;
        unsigned long n = std::strtoul(val, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(val[0])) ||
            end == val || *end != '\0' || n > kMaxSweepThreads) {
            std::fprintf(stderr, "bad --threads '%s'\n", val);
            return -1;
        }
        opts.threads = static_cast<unsigned>(n);
        return 1;
    }
    if ((r = takeValue(argc, argv, i, "--scale", &val)) != 0) {
        if (r < 0)
            return -1;
        char *end = nullptr;
        opts.scale = std::strtod(val, &end);
        if (end == val || *end != '\0' ||
            !std::isfinite(opts.scale) || opts.scale <= 0.0) {
            std::fprintf(stderr, "bad --scale '%s'\n", val);
            return -1;
        }
        return 1;
    }
    if ((r = takeValue(argc, argv, i, "--store-max-mb", &val)) != 0) {
        if (r < 0)
            return -1;
        char *end = nullptr;
        unsigned long long n = std::strtoull(val, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(val[0])) ||
            end == val || *end != '\0' || n == 0) {
            std::fprintf(stderr, "bad --store-max-mb '%s'\n", val);
            return -1;
        }
        opts.storeMaxMb = static_cast<uint64_t>(n);
        return 1;
    }
    if ((r = takeValue(argc, argv, i, "--store", &val)) != 0) {
        if (r < 0)
            return -1;
        if (val[0] == '\0') {
            std::fprintf(stderr, "bad --store ''\n");
            return -1;
        }
        opts.storeDir = val;
        return 1;
    }
    if ((r = takeValue(argc, argv, i, "--stats", &val)) != 0) {
        if (r < 0)
            return -1;
        if (val[0] == '\0') {
            std::fprintf(stderr, "bad --stats ''\n");
            return -1;
        }
        opts.statsPath = val;
        return 1;
    }
    if ((r = takeValue(argc, argv, i, "--perfetto", &val)) != 0) {
        if (r < 0)
            return -1;
        if (val[0] == '\0') {
            std::fprintf(stderr, "bad --perfetto ''\n");
            return -1;
        }
        opts.perfettoPath = val;
        return 1;
    }
    return 0;
}

bool
validateFigureOptions(const FigureOptions &opts)
{
    if (opts.storeStats && opts.storeDir.empty()) {
        std::fprintf(stderr,
                     "--store-stats needs --store DIR (there are no "
                     "counters without a store)\n");
        return false;
    }
    if (opts.storeMaxMb != 0 && opts.storeDir.empty()) {
        std::fprintf(stderr,
                     "--store-max-mb needs --store DIR (there is "
                     "nothing to cap without a store)\n");
        return false;
    }
    if (opts.storeFsync && opts.storeDir.empty()) {
        std::fprintf(stderr,
                     "--store-fsync needs --store DIR (there is "
                     "nothing to sync without a store)\n");
        return false;
    }
    return true;
}

SweepEngine
makeSweepEngine(const TraceCache &traces, const FigureOptions &opts,
                ResultStore *store)
{
    std::unique_ptr<SweepBackend> backend =
        std::make_unique<InProcessBackend>(traces, opts.threads);
    if (store)
        backend = std::make_unique<StoreBackend>(*store, traces,
                                                 std::move(backend));
    return SweepEngine(traces, std::move(backend));
}

void
printStoreStats(const ResultStore &store)
{
    StoreStats s = store.stats();
    uint64_t lookups = s.hits + s.misses;
    double rate = lookups == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(s.hits) /
                            static_cast<double>(lookups);
    std::fprintf(stderr,
                 "[store] dir=%s hits=%llu misses=%llu stores=%llu "
                 "bytesRead=%llu bytesWritten=%llu evictions=%llu "
                 "quarantined=%llu hitRate=%.1f%%\n",
                 store.dir().c_str(),
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.stores),
                 static_cast<unsigned long long>(s.bytesRead),
                 static_cast<unsigned long long>(s.bytesWritten),
                 static_cast<unsigned long long>(s.evictions),
                 static_cast<unsigned long long>(s.quarantined),
                 rate);
}

void
installProgressMeter(SweepEngine &engine)
{
    // State shared by worker threads for the lifetime of the
    // std::function; the mutex serializes the stderr lines.
    struct Meter
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        std::mutex mutex;
    };
    auto meter = std::make_shared<Meter>();
    engine.setProgress([meter](size_t done, size_t total) {
        std::lock_guard<std::mutex> lock(meter->mutex);
        double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - meter->start)
                .count();
        double eta =
            elapsed * static_cast<double>(total - done) /
            static_cast<double>(done);
        std::fprintf(stderr,
                     "[sweep] %zu/%zu jobs  %.1fs elapsed  "
                     "~%.1fs left\n",
                     done, total, elapsed, eta);
    });
}

} // namespace oova
