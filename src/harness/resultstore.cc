#include "harness/resultstore.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace oova
{

namespace
{

uint64_t
fnv1a(const std::string &s, uint64_t hash)
{
    for (unsigned char c : s)
        hash = (hash ^ c) * 1099511628211ull;
    return hash;
}

/** A well-formed index key: exactly 32 lowercase hex digits. */
bool
validIndexKey(const std::string &key)
{
    if (key.size() != 32)
        return false;
    for (char c : key)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** Open + fsync + close; best-effort (durability, not correctness). */
void
fsyncPath(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_))
        fatal("cannot create result store directory '%s'",
              dir_.c_str());

    // Repair a torn index tail (an appender that died mid-line):
    // terminating the partial line keeps it from merging with the
    // next append into one unparsable record. Replay additionally
    // skips any line whose key is not 32 hex digits, so even an
    // unrepaired tear only costs one ignorable line.
    std::string idxPath = dir_ + "/index.log";
    std::ifstream idx(idxPath, std::ios::binary | std::ios::ate);
    if (idx) {
        auto size = idx.tellg();
        if (size > 0) {
            idx.seekg(-1, std::ios::end);
            char last = '\n';
            idx.get(last);
            idx.close();
            if (last != '\n') {
                warn("result store: repairing torn index tail in "
                     "'%s'",
                     idxPath.c_str());
                std::ofstream fix(idxPath,
                                  std::ios::app | std::ios::binary);
                fix << '\n';
            }
        }
    }
}

std::string
ResultStore::makeKey(uint64_t traceHash, const std::string &configKey,
                     double scale)
{
    // Everything that can change a result, in one canonical string.
    // %.17g round-trips every double exactly, so two processes with
    // the same scale always derive the same key.
    std::string material =
        csprintf("schema=%d|trace=%016llx|cfg=%s|scale=%.17g",
                 SimResult::kResultSchemaVersion,
                 static_cast<unsigned long long>(traceHash),
                 configKey.c_str(), scale);
    // Two independent FNV-1a streams (offset basis vs. its
    // complement) give a 128-bit key; collisions would silently
    // serve the wrong result, so 64 bits alone is not enough.
    uint64_t lo = fnv1a(material, 14695981039346656037ull);
    uint64_t hi = fnv1a(material, ~14695981039346656037ull);
    return csprintf("%016llx%016llx",
                    static_cast<unsigned long long>(hi),
                    static_cast<unsigned long long>(lo));
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

std::string
ResultStore::headerLine(const std::string &key) const
{
    // First line of every entry: self-describing and self-checking,
    // so a renamed or truncated file can never parse as a hit.
    return csprintf("OOVA-RESULT store=%d schema=%d key=%s",
                    kStoreVersion, SimResult::kResultSchemaVersion,
                    key.c_str());
}

bool
ResultStore::load(const std::string &key, SimResult &out)
{
    auto miss = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return false;
    };
    // An entry that exists but cannot be trusted is evidence —
    // quarantine it instead of leaving a perpetual silent miss
    // behind; the caller re-simulates and store() heals the key.
    auto corrupt = [&] {
        quarantine(key);
        return miss();
    };

    std::ifstream is(entryPath(key), std::ios::binary);
    if (!is)
        return miss();
    std::ostringstream buf;
    buf << is.rdbuf();
    if (!is.good() && !is.eof())
        return miss();
    std::string body = buf.str();

    size_t nl = body.find('\n');
    if (nl == std::string::npos ||
        body.substr(0, nl) != headerLine(key))
        return corrupt();
    if (!SimResult::fromJson(body.substr(nl + 1), out))
        return corrupt();

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    stats_.bytesRead += body.size();
    return true;
}

void
ResultStore::quarantine(const std::string &key)
{
    std::string from = entryPath(key);
    std::string to = dir_ + "/" + key + ".bad";
    // rename() is atomic, so of any number of concurrent readers
    // tripping over the same corrupt entry exactly one wins the
    // rename — only that one counts and reports it.
    if (std::rename(from.c_str(), to.c_str()) != 0)
        return;
    warn("result store: quarantined corrupt entry '%s' -> '%s'",
         from.c_str(), to.c_str());
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.quarantined;
}

void
ResultStore::store(const std::string &key, const SimResult &res)
{
    std::string body = headerLine(key) + "\n" + res.toJson();

    uint64_t seq;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        seq = tmpSeq_++;
    }
    // Unique per (process, thread-serialized sequence): concurrent
    // writers — including other processes sharing the store — never
    // collide on the temp name, and rename() makes the final entry
    // appear atomically or not at all.
    std::string tmp =
        csprintf("%s/.tmp.%s.%d.%llu", dir_.c_str(), key.c_str(),
                 static_cast<int>(::getpid()),
                 static_cast<unsigned long long>(seq));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os.write(body.data(),
                 static_cast<std::streamsize>(body.size()));
        if (!os.good()) {
            warn("result store: cannot write '%s'", tmp.c_str());
            os.close();
            std::remove(tmp.c_str());
            return;
        }
    }
    // Data before name: with the entry bytes on stable storage
    // before the rename publishes them, a crash can never leave a
    // published-but-hollow entry.
    if (fsync_)
        fsyncPath(tmp);
    if (std::rename(tmp.c_str(), entryPath(key).c_str()) != 0) {
        warn("result store: cannot publish '%s'",
             entryPath(key).c_str());
        std::remove(tmp.c_str());
        return;
    }
    if (fsync_)
        fsyncPath(dir_);

    // Advisory provenance log; one formatted line per append so
    // interleaved writers stay line-atomic in practice.
    {
        std::ofstream idx(dir_ + "/index.log",
                          std::ios::app | std::ios::binary);
        idx << csprintf("%s %s %s\n", key.c_str(), res.program.c_str(),
                        res.machine.c_str());
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stores;
        stats_.bytesWritten += body.size();
    }
    if (maxBytes_ != 0)
        enforceCap();
}

void
ResultStore::setMaxBytes(uint64_t bytes)
{
    maxBytes_ = bytes;
}

void
ResultStore::enforceCap()
{
    // index.log is append-only, so its line order is the entries'
    // age order. A key can appear more than once — concurrent
    // writers of one key all win, and an evicted key may be
    // re-stored later — so a key's age is its *last* occurrence: a
    // rewrite makes the entry fresh again.
    std::vector<std::string> keys;
    std::unordered_set<std::string> seen;
    {
        std::vector<std::string> raw;
        std::ifstream idx(dir_ + "/index.log", std::ios::binary);
        std::string line;
        while (std::getline(idx, line)) {
            size_t sp = line.find(' ');
            std::string key =
                sp == std::string::npos ? line : line.substr(0, sp);
            // A torn append (no trailing newline before the next
            // writer's line, or a half-written key) yields a
            // malformed key; skipping it degrades gracefully —
            // worst case one entry ages as if never refreshed.
            if (validIndexKey(key))
                raw.push_back(std::move(key));
        }
        for (size_t i = raw.size(); i-- > 0;)
            if (seen.insert(raw[i]).second)
                keys.push_back(std::move(raw[i]));
        std::reverse(keys.begin(), keys.end());
    }

    uint64_t total = 0;
    std::vector<uint64_t> sizes(keys.size(), 0);
    std::error_code ec;
    for (size_t i = 0; i < keys.size(); ++i) {
        // Already-evicted (or foreign-process-evicted) entries leave
        // stale index lines behind; a missing file simply costs 0.
        uint64_t sz = std::filesystem::file_size(entryPath(keys[i]),
                                                 ec);
        if (ec) {
            ec.clear();
            continue;
        }
        sizes[i] = sz;
        total += sz;
    }

    uint64_t evicted = 0;
    for (size_t i = 0; i < keys.size() && total > maxBytes_; ++i) {
        if (sizes[i] == 0)
            continue;
        // Unlink is atomic: a reader mid-race gets a clean miss. A
        // concurrent evictor may have won; only count our removal.
        if (std::remove(entryPath(keys[i]).c_str()) == 0)
            ++evicted;
        total -= sizes[i];
    }
    if (evicted != 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.evictions += evicted;
    }
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace oova
