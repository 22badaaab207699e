/**
 * @file
 * The three workloads.  Each runs its set-up, a measured phase of
 * Options::seconds, and its correctness checks, and fills the report
 * with every end-to-end metric; with Options::trace it also fills the
 * per-layer metrics it can measure (see README.md for the layer map).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <functional>
#include <string>
#include <vector>

#include "obs/telemetry.hh"

#include "common.hh"

namespace pb
{

void runRiskAnalysis(const Options &opt, Report &rep);
void runDesignSweep(const Options &opt, Report &rep);
void runServeMixed(const Options &opt, Report &rep);

/**
 * Set-up repetitions per run; setup_s is their median.  The first
 * starts at program entry, so it also covers process start-up.
 */
inline constexpr int kSetupReps = 7;

/** Per-op samples of one measured phase. */
struct Samples
{
    std::vector<double> ms;    ///< Op latency.
    std::vector<double> end_s; ///< Op completion, seconds into the phase.
    std::vector<double> cells; ///< Trial cells the op merged.
    std::size_t failed = 0;
    double elapsed_s = 0;

    void add(double op_ms, double at_s, double op_cells)
    {
        ms.push_back(op_ms);
        end_s.push_back(at_s);
        cells.push_back(op_cells);
    }
};

/**
 * Run @p op back to back until @p seconds elapse (at least one op).
 * The op adds the trial cells it merged to its second argument and
 * returns false when it failed.
 */
Samples timedLoop(double seconds,
                  const std::function<bool(std::size_t, double &)> &op);

/**
 * Split the measured phase: a traced run measures half untraced and
 * half with spans and ar::obs metrics on, and reports
 * obs.trace_overhead from the two op_ms_p50 values.
 */
struct Phases
{
    double untraced_s;
    double traced_s;
};
Phases phasesFor(const Options &opt);

/** Turn span recording and the library's obs metrics on or off. */
void setTracing(bool on);

/** Equal sub-windows of a measured phase (see reportLatency). */
inline constexpr int kWindows = 5;

/**
 * Report op_ms_p50/p90/p99, requests_per_s and trials_per_s.  Each is
 * the median over kWindows equal sub-windows of the phase (ops binned
 * by completion time), so one slow stretch of a shared host moves
 * none of them.
 */
void reportLatency(Report &rep, const Samples &s);

/**
 * Report pool.task_us, the mean of the library's parallelFor item
 * latency histogram (unmeasured when no job item ran on the pool).
 */
void reportPoolTaskUs(Report &rep, const ar::obs::MetricsSnapshot &snap);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH
