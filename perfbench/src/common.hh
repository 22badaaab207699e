/**
 * @file
 * Shared plumbing of perfbench: options, the metric report that
 * becomes its JSON result line, the in-memory span tracer, and
 * small timing/statistics helpers.  Nothing here touches the archrisk
 * library except host facts (SIMD dispatch level).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nanoseconds on the steady clock since perfbench started. */
std::int64_t nowNs();

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 12.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::size_t nproc = 1;           ///< Online cores of this host.
    Clock::time_point start;         ///< Program entry (setup_s origin).
};

/** Metric values and op accounting of one run. */
class Report
{
  public:
    /** Record a measured metric. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /**
     * Record a metric this workload cannot measure: it is reported
     * as 0 and listed, with @p why, in the run's layer ledger.
     */
    void unmeasured(const std::string &name, const std::string &unit,
                    const std::string &why);

    /** Record a failed correctness check (makes the run incorrect). */
    void checkFailed(const std::string &what);

    /** Count @p n attempted ops, @p failed of them failed. */
    void ops(std::size_t n, std::size_t failed = 0);

    struct Value
    {
        double value = 0.0;
        std::string unit;
    };

    const std::map<std::string, Value> &metrics() const { return m_; }
    const std::map<std::string, std::string> &missing() const
    {
        return missing_;
    }
    const std::vector<std::string> &failures() const { return fail_; }
    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }

    /** Add failed ops found after the measured phase (checks). */
    void addFailed(std::size_t n) { failed_ += n; }

    /** The JSON result line: correct/attempted/failed/metrics. */
    std::string json() const;

  private:
    std::map<std::string, Value> m_;
    std::map<std::string, std::string> missing_;
    std::vector<std::string> fail_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

/**
 * Span recorder.  Spans (name, start, end, parent, op id) are kept in
 * memory and written out when the run ends; nothing is recorded
 * while disabled.  Only perfbench's main thread records spans.
 */
class Tracer
{
  public:
    static Tracer &get();

    void enable(bool on) { on_ = on; }

    /** Tag the spans opened from now on with @p op. */
    void setOp(std::uint64_t op) { op_ = op; }

    /** @return span index, or -1 while disabled. */
    std::int64_t open(const char *name);
    void close(std::int64_t idx);

    /** Record an already-finished span (e.g. a client round trip
     * timed across poll() wake-ups). */
    void record(const char *name, std::int64_t start_ns,
                std::int64_t end_ns);

    struct Span
    {
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int64_t parent;
        std::uint64_t op;
    };

    /**
     * Self time per layer (the span name up to its first '.'):
     * each span's duration minus the part its children cover.
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as one JSON array. */
    void writeSpans(const std::string &path) const;

  private:
    bool on_ = false;
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : idx_(Tracer::get().open(name))
    {}
    ~ScopedSpan() { Tracer::get().close(idx_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int64_t idx_;
};

/** Linear-interpolated quantile (q in [0,1]); 0 for empty input. */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/** Peak resident set size of this process, MiB (getrusage). */
double peakRssMib();

/** Host and build facts stamped on every result (JSON object). */
std::string hostFactsJson(const Options &opt);

/** One-line human summary of the same facts. */
std::string hostFactsLine(const Options &opt);

/** True when the library and perfbench were built optimized. */
bool optimizedBuild();

/** Write @p text to @p path (fatal on failure). */
void writeFile(const std::string &path, const std::string &text);

/** JSON string literal of @p s. */
std::string jsonStr(const std::string &s);

/** Shortest round-tripping decimal form of @p v. */
std::string num(double v);

/** Bit-exact equality of two doubles (NaN == NaN). */
bool sameBits(double a, double b);

/** |a - b| <= rel * max(|a|, |b|). */
bool closeRel(double a, double b, double rel);

/** Deterministic 64-bit generator for inputs (splitmix64). */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi);
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t s_;
};

} // namespace pb

#endif // PERFBENCH_COMMON_HH
