#include "harness/resultstore.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

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
    if (!SimResult::fromJson(std::string_view(body).substr(nl + 1),
                             out))
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

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    stats_.bytesWritten += body.size();
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace oova
