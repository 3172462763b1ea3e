#include "mem/simresult.hh"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "common/json.hh"
#include "common/logging.hh"

namespace oova
{

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
    case StallCause::None:
        return "none";
    case StallCause::ScalarDep:
        return "scalar-dep";
    case StallCause::VectorDep:
        return "vector-dep";
    case StallCause::WarWaw:
        return "war/waw";
    case StallCause::FuBusy:
        return "fu-busy";
    case StallCause::MemUnit:
        return "mem-unit";
    case StallCause::Ports:
        return "ports";
    case StallCause::Branch:
        return "branch";
    default:
        return "?";
    }
}

const char *
cpiBucketName(CpiBucket bucket)
{
    switch (bucket) {
    case CpiBucket::Commit:
        return "commit";
    case CpiBucket::Fetch:
        return "fetch";
    case CpiBucket::Rename:
        return "rename";
    case CpiBucket::QueueFull:
        return "queue-full";
    case CpiBucket::OperandWait:
        return "operand-wait";
    case CpiBucket::FuBusy:
        return "fu-busy";
    case CpiBucket::Memory:
        return "memory";
    case CpiBucket::TlbTrap:
        return "tlb-trap";
    case CpiBucket::Drain:
        return "drain";
    default:
        return "?";
    }
}

namespace
{

template <size_t N, typename NameFn>
std::array<std::string, N>
labelTable(NameFn name)
{
    std::array<std::string, N> table;
    for (size_t i = 0; i < N; ++i) {
        table[i] = name(i);
        sim_assert(jsonString(table[i]).size() == table[i].size() + 2,
                   "label '%s' needs escaping", table[i].c_str());
    }
    return table;
}

/**
 * The labels of the keyed rows, built once. Both directions use them
 * verbatim between quotes, so none may need escaping.
 */
struct FieldLabels
{
    std::array<std::string, UnitStateBreakdown::kNumStates> states =
        labelTable<UnitStateBreakdown::kNumStates>([](size_t i) {
            return UnitStateBreakdown::stateName(static_cast<int>(i));
        });
    std::array<std::string, kNumStallCauses> stallCauses =
        labelTable<kNumStallCauses>([](size_t i) {
            return stallCauseName(static_cast<StallCause>(i));
        });
    std::array<std::string, kNumCpiBuckets> cpiBuckets =
        labelTable<kNumCpiBuckets>([](size_t i) {
            return cpiBucketName(static_cast<CpiBucket>(i));
        });
    std::array<std::string, kNumOccStructs> occStructs =
        labelTable<kNumOccStructs>([](size_t i) {
            return occStructName(static_cast<OccStruct>(i));
        });
    std::array<std::string, StatDistribution::kNumBuckets> buckets =
        labelTable<StatDistribution::kNumBuckets>(
            [](size_t i) { return csprintf("b%zu", i); });
    std::array<std::string, StatTimeSeries::kMaxEpochs> epochs =
        labelTable<StatTimeSeries::kMaxEpochs>(
            [](size_t i) { return csprintf("e%zu", i); });
};

const FieldLabels &
fieldLabels()
{
    static const FieldLabels labels;
    return labels;
}

/** Appends the record text. */
class JsonOut
{
  public:
    void lit(std::string_view s) { out_ += s; }

    void
    num(uint64_t v)
    {
        char buf[24];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }

    void text(const std::string &s) { out_ += jsonString(s); }

    std::string
    take()
    {
        return std::move(out_);
    }

  private:
    std::string out_;
};

/**
 * Expects the record text byte for byte and parses the values in it.
 * The first mismatch clears ok_ and turns every later call into a
 * no-op, so a caller checks once, at the end.
 */
class JsonIn
{
  public:
    explicit JsonIn(std::string_view s)
        : p_(s.data()), end_(s.data() + s.size())
    {
    }

    /** Every expectation met and nothing left over. */
    bool done() const { return ok_ && p_ == end_; }

    void
    lit(std::string_view s)
    {
        ok_ = ok_ && std::string_view(p_, end_ - p_).starts_with(s);
        if (ok_)
            p_ += s.size();
    }

    void
    num(uint64_t &v)
    {
        if (!ok_)
            return;
        auto [next, ec] = std::from_chars(p_, end_, v);
        ok_ = ec == std::errc();
        p_ = next;
    }

    /** A quoted string, undoing jsonString()'s escapes. */
    void
    text(std::string &s)
    {
        lit("\"");
        s.clear();
        while (ok_ && p_ < end_ && *p_ != '"') {
            char c = *p_++;
            s += c == '\\' ? unescape() : c;
        }
        lit("\"");
    }

  private:
    char
    unescape()
    {
        char e = p_ < end_ ? *p_++ : '\0';
        switch (e) {
        case '"':
        case '\\':
        case '/':
            return e;
        case 'n':
            return '\n';
        case 't':
            return '\t';
        case 'u': {
            // The writer only escapes bytes below 0x20 this way.
            unsigned v = 0;
            auto [next, ec] = std::from_chars(
                p_, std::min(p_ + 4, end_), v, 16);
            ok_ = ok_ && ec == std::errc() && next == p_ + 4 &&
                  v <= 0xff;
            p_ = next;
            return static_cast<char>(v);
        }
        default:
            ok_ = false;
            return '\0';
        }
    }

    const char *p_;
    const char *end_;
    bool ok_ = true;
};

/**
 * The record layout, written once for both directions: Io is JsonOut
 * (write the text) or JsonIn (expect the same text and parse its
 * values). The reader therefore finds each key exactly where the
 * writer puts it, and a missing, repeated, reordered or unknown key
 * fails.
 */
template <typename Io>
class Layout : public Io
{
  public:
    using Io::Io;

    /** `,\n  "key": "s"` */
    template <typename S>
    void
    str(std::string_view key, S &s)
    {
        field(key);
        this->text(s);
    }

    /** `,\n  "key": n` */
    template <typename U>
    void
    u64(std::string_view key, U &v)
    {
        field(key);
        this->num(v);
    }

    /** `,\n  "key": {"label": n, ...}`, one item per label. */
    template <typename A, typename L>
    void
    row(std::string_view key, A &vals, const L &labels)
    {
        field(key);
        this->lit("{");
        first_ = true;
        items(vals, labels);
        this->lit("}");
    }

    /**
     * `,\n  "key": {\n    "rob": {...},\n    "aqueue": {...}}`: one
     * record per occupancy structure, whose items @p fn visits.
     */
    template <typename A, typename Fn>
    void
    perStruct(std::string_view key, A &records, Fn fn)
    {
        field(key);
        this->lit("{");
        for (size_t s = 0; s < records.size(); ++s) {
            this->lit(s ? ",\n    \"" : "\n    \"");
            this->lit(fieldLabels().occStructs[s]);
            this->lit("\": {");
            first_ = true;
            fn(records[s]);
            this->lit("}");
        }
        this->lit("}");
    }

    /** `"label": n` inside a row or record, comma-separated. */
    template <typename U>
    void
    item(std::string_view label, U &v)
    {
        this->lit(first_ ? "\"" : ", \"");
        first_ = false;
        this->lit(label);
        this->lit("\": ");
        this->num(v);
    }

    template <typename A, typename L>
    void
    items(A &vals, const L &labels)
    {
        for (size_t i = 0; i < vals.size(); ++i)
            item(labels[i], vals[i]);
    }

  private:
    void
    field(std::string_view key)
    {
        this->lit(",\n  \"");
        this->lit(key);
        this->lit("\": ");
    }

    bool first_ = true;
};

/**
 * Every stored SimResult field, named once, in record order. toJson()
 * runs it with a writer and fromJson() with a reader.
 */
template <typename Result, typename Visitor>
void
walkFields(Result &r, Visitor &v)
{
    const FieldLabels &l = fieldLabels();
    v.str("program", r.program);
    v.str("machine", r.machine);
    v.u64("cycles", r.cycles);
    v.u64("instructions", r.instructions);
    v.row("stateCycles", r.stateCycles, l.states);
    v.u64("fu1BusyCycles", r.fu1BusyCycles);
    v.u64("fu2BusyCycles", r.fu2BusyCycles);
    v.u64("memBusyCycles", r.memBusyCycles);
    v.u64("memRequests", r.memRequests);
    v.u64("memBankConflicts", r.memBankConflicts);
    v.u64("memConflictCycles", r.memConflictCycles);
    v.u64("memIndexedConflicts", r.memIndexedConflicts);
    v.u64("memIndexedConflictCycles", r.memIndexedConflictCycles);
    v.u64("cacheHits", r.cacheHits);
    v.u64("cacheMisses", r.cacheMisses);
    v.u64("mshrStallCycles", r.mshrStallCycles);
    v.u64("tlbHits", r.tlbHits);
    v.u64("tlbMisses", r.tlbMisses);
    v.u64("tlbIndexedMisses", r.tlbIndexedMisses);
    v.u64("tlbMissCycles", r.tlbMissCycles);
    v.u64("vectorLoadsEliminated", r.vectorLoadsEliminated);
    v.u64("scalarLoadsEliminated", r.scalarLoadsEliminated);
    v.u64("branchMispredicts", r.branchMispredicts);
    v.u64("renameStallCycles", r.renameStallCycles);
    v.u64("robStallCycles", r.robStallCycles);
    v.u64("queueStallCycles", r.queueStallCycles);
    v.u64("traps", r.traps);
    v.row("stallCycles", r.stallCycles, l.stallCauses);
    v.row("cpiCycles", r.cpiCycles, l.cpiBuckets);
    v.perStruct("occupancy", r.occupancy, [&](auto &d) {
        v.item("width", d.width);
        v.item("samples", d.samples);
        v.item("sum", d.sum);
        v.item("sumsq", d.sumSquares);
        v.item("min", d.minValue);
        v.item("max", d.maxValue);
        v.items(d.buckets, l.buckets);
    });
    v.perStruct("occupancyTs", r.occupancyTs, [&](auto &t) {
        v.item("epoch", t.epochLen);
        v.item("total", t.total);
        v.items(t.sums, l.epochs);
    });
}

/** The line every record opens with. */
const std::string &
header()
{
    static const std::string line =
        csprintf("{\n  \"resultSchemaVersion\": %d",
                 SimResult::kResultSchemaVersion);
    return line;
}

/**
 * What toJson() writes after the stored fields: the derived
 * accessors, so consumers need not re-implement them.
 */
std::string
derivedTail(const SimResult &r)
{
    return csprintf(
        ",\n  \"portIdleFraction\": %.6f"
        ",\n  \"memStridedConflicts\": %llu"
        ",\n  \"stridedTlbMisses\": %llu"
        ",\n  \"ipc\": %.6f\n}\n",
        r.portIdleFraction(),
        static_cast<unsigned long long>(r.memStridedConflicts()),
        static_cast<unsigned long long>(r.stridedTlbMisses()), r.ipc());
}

} // namespace

std::string
SimResult::toJson() const
{
    Layout<JsonOut> out;
    out.lit(header());
    walkFields(*this, out);
    out.lit(derivedTail(*this));
    return out.take();
}

bool
SimResult::fromJson(std::string_view json, SimResult &out)
{
    SimResult r;
    Layout<JsonIn> in(json);
    in.lit(header());
    walkFields(r, in);
    // The derived keys are not stored: they must read back exactly as
    // toJson() writes them for the fields just read.
    in.lit(derivedTail(r));
    if (!in.done())
        return false;
    out = std::move(r);
    return true;
}

} // namespace oova
