#include "harness/perfetto.hh"

#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace oova
{

std::string
SweepTraceLog::render() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (const auto &[tid, name] : threadNames_) {
        sep();
        os << csprintf("{\"ph\": \"M\", \"name\": \"thread_name\", "
                       "\"pid\": 1, \"tid\": %u, "
                       "\"args\": {\"name\": %s}}",
                       tid, jsonString(name).c_str());
    }
    for (const TraceSpan &s : spans_) {
        sep();
        os << csprintf("{\"ph\": \"X\", \"name\": %s, "
                       "\"cat\": %s, \"pid\": 1, \"tid\": %u, "
                       "\"ts\": %llu, \"dur\": %llu",
                       jsonString(s.name).c_str(),
                       jsonString(s.category).c_str(), s.tid,
                       static_cast<unsigned long long>(s.tsUs),
                       static_cast<unsigned long long>(s.durUs));
        if (!s.args.empty()) {
            os << ", \"args\": {";
            for (size_t i = 0; i < s.args.size(); ++i) {
                if (i)
                    os << ", ";
                os << jsonString(s.args[i].first) << ": "
                   << jsonString(s.args[i].second);
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]\n}\n";
    return os.str();
}

bool
SweepTraceLog::write(const std::string &path) const
{
    return writeTextFile(path, render(), "--perfetto");
}

} // namespace oova
