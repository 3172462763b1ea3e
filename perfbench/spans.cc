/**
 * @file
 * Order statistics and the span log of the traced run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace perfbench
{

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Metric
summarize(const std::vector<double> &samples, std::string unit)
{
    Metric m;
    m.value = quantile(samples, 0.5);
    m.q1 = quantile(samples, 0.25);
    m.q3 = quantile(samples, 0.75);
    m.n = samples.size();
    m.unit = std::move(unit);
    return m;
}

Metric
single(double value, std::string unit)
{
    Metric m;
    m.value = m.q1 = m.q3 = value;
    m.unit = std::move(unit);
    return m;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

int
SpanLog::open(const char *layer, std::string name)
{
    Span s;
    s.layer = layer;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    spans_[id].durUs = nowUs() - spans_[id].startUs;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanLog::charge(const char *layer, double ms)
{
    charge(layer, ms, stack_.empty() ? -1 : stack_.back());
}

void
SpanLog::charge(const char *layer, double ms, int parent)
{
    charges_.push_back({parent, layer, ms});
}

void
SpanLog::arg(int id, std::string key, std::string value)
{
    spans_[id].args.emplace_back(std::move(key), std::move(value));
}

std::map<std::string, double>
SpanLog::selfMs(size_t fromSpan, double wallMs) const
{
    std::map<std::string, double> self;
    std::vector<double> childMs(spans_.size(), 0.0);
    double topMs = 0.0;
    for (size_t i = fromSpan; i < spans_.size(); ++i) {
        double ms = spans_[i].durUs / 1000.0;
        if (spans_[i].parent >= static_cast<int>(fromSpan))
            childMs[spans_[i].parent] += ms;
        else
            topMs += ms;
    }
    for (const Charge &c : charges_) {
        if (c.parent < static_cast<int>(fromSpan))
            continue;
        childMs[c.parent] += c.ms;
        self[c.layer] += c.ms;
    }
    for (size_t i = fromSpan; i < spans_.size(); ++i)
        self[spans_[i].layer] +=
            std::max(0.0, spans_[i].durUs / 1000.0 - childMs[i]);
    self["unattributed"] = std::max(0.0, wallMs - topMs);
    return self;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"driver\"}}";
    char buf[160];
    for (size_t id = 0; id < spans_.size(); ++id) {
        const Span &s = spans_[id];
        std::snprintf(buf, sizeof buf,
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d",
                      s.startUs, s.durUs, id, s.parent);
        f << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":"
          << jsonString(s.layer) << ",\"name\":" << jsonString(s.name)
          << "," << buf;
        for (const auto &[key, value] : s.args)
            f << "," << jsonString(key) << ":" << jsonString(value);
        f << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench
