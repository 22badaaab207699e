/**
 * @file
 * perfbench: the archrisk repository benchmark.
 *
 *   perfbench --workload risk-analysis|design-sweep|serve-mixed
 *             --seed N --seconds S --trace 0|1 [--out DIR]
 *   perfbench --selftest
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1.  Spans, the layer
 * ledger, the generated inputs and a host-stamped copy of the result
 * go to DIR/<workload>-seed<N>-trace<T>/.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "obs/telemetry.hh"

#include "common.hh"
#include "gen.hh"
#include "workloads.hh"

namespace pb
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported on every workload by --trace 0. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"trials_per_s", "trials/s"},
    {"op_ms_p50", "ms"},        {"op_ms_p90", "ms"},
    {"op_ms_p99", "ms"},        {"requests_per_s", "req/s"},
    {"peak_rss_mib", "MiB"},
};

/** Per-layer metrics, reported on every workload by --trace 1 (0
 * where the workload does not reach the layer; see ledger.json). */
const MetricDef kPerLayer[] = {
    {"core.parse_us", "us"},
    {"core.runspec_ms.keep", "ms"},
    {"core.runspec_ms.stream", "ms"},
    {"symbolic.compile_us", "us"},
    {"symbolic.tape_ops", "ops"},
    {"symbolic.cse_saved_share", "share"},
    {"symbolic.eval_ns_per_trial", "ns/trial"},
    {"symbolic.edit_us", "us"},
    {"symbolic.edit_patched_share", "share"},
    {"mc.uniform_ns_per_trial", "ns/trial"},
    {"dist.quantile_ns_per_draw", "ns/draw"},
    {"dist.quantile_ns_per_draw.truncnormal", "ns/draw"},
    {"dist.quantile_ns_per_draw.normbinomial", "ns/draw"},
    {"dist.quantile_ns_per_draw.lognormal", "ns/draw"},
    {"dist.quantile_ns_per_draw.binomial", "ns/draw"},
    {"dist.quantile_ns_per_draw.categorical", "ns/draw"},
    {"mc.copula_ns_per_trial", "ns/trial"},
    {"stats.accumulate_ns_per_trial", "ns/trial"},
    {"mc.propagate_ns_per_trial.keep", "ns/trial"},
    {"mc.propagate_ns_per_trial.stream", "ns/trial"},
    {"mc.unattributed_share", "share"},
    {"mc.stream_over_keep", "ratio"},
    {"mc.thread_speedup", "ratio"},
    {"mc.blocks", "count"},
    {"mc.early_stop_share", "share"},
    {"mc.fault_share", "share"},
    {"mc.engine_peak_bytes", "bytes"},
    {"mc.sample_ns_per_trial", "ns/trial"},
    {"mc.eval_ns_per_trial", "ns/trial"},
    {"risk.tail_us", "us"},
    {"mc.sobol_ns_per_eval", "ns/eval"},
    {"explore.construct_ms", "ms"},
    {"explore.evaluate_ms", "ms"},
    {"model.hill_marty_ns_per_eval", "ns/eval"},
    {"sweep.pools_ns", "ns"},
    {"sweep.compile_ns", "ns"},
    {"sweep.eval_ns", "ns"},
    {"sweep.stats_ns", "ns"},
    {"serve.run_ms_p50", "ms"},
    {"serve.rerun_ms_p50", "ms"},
    {"serve.edit_ms_p50", "ms"},
    {"serve.sens_ms_p50", "ms"},
    {"serve.sweep_ms_p50", "ms"},
    {"serve.upload_ms_p50", "ms"},
    {"serve.ping_ms_p50", "ms"},
    {"serve.overhead_share", "share"},
    {"serve.queue_depth_max", "count"},
    {"serve.overload_share", "share"},
    {"serve.degraded_share", "share"},
    {"framework.patch_hit_share", "share"},
    {"pool.task_us", "us"},
    {"obs.trace_overhead", "ratio"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "risk-analysis|design-sweep|serve-mixed --seed N "
                 "--seconds S --trace 0|1 [--out DIR] | --selftest\n",
                 why);
    std::exit(2);
}

std::string
ledgerJson(const Options &opt, const Report &rep)
{
    const auto self = Tracer::get().selfMsByLayer();
    double total = 0;
    for (const auto &[layer, ms] : self)
        total += ms;
    std::ostringstream o;
    o << "{\"workload\": " << jsonStr(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"self_ms\": {";
    bool first = true;
    for (const auto &[layer, ms] : self) {
        o << (first ? "" : ", ") << jsonStr(layer) << ": {\"ms\": "
          << num(ms) << ", \"share\": " << num(total > 0 ? ms / total : 0)
          << "}";
        first = false;
    }
    o << "}, \"unmeasured\": {";
    first = true;
    for (const auto &[name, why] : rep.missing()) {
        o << (first ? "" : ", ") << jsonStr(name) << ": " << jsonStr(why);
        first = false;
    }
    o << "}}\n";
    return o.str();
}

/** Why a layer metric is absent from a workload. */
std::string
notOnPath(const std::string &workload, const std::string &metric)
{
    return metric + " belongs to another workload in the README's layer "
           "map; " + workload + " does not reach that layer";
}

} // namespace

Phases
phasesFor(const Options &opt)
{
    if (!opt.trace)
        return {opt.seconds, 0.0};
    return {opt.seconds / 2, opt.seconds / 2};
}

void
setTracing(bool on)
{
    if (on)
        ar::obs::MetricsRegistry::global().reset();
    ar::obs::setMetricsEnabled(on);
    Tracer::get().enable(on);
}

Samples
timedLoop(double seconds, const std::function<bool(std::size_t, double &)> &op)
{
    Samples s;
    const auto t0 = Clock::now();
    do {
        const auto a = Clock::now();
        double cells = 0;
        const bool ok = op(s.ms.size(), cells);
        s.add(secondsSince(a) * 1e3, secondsSince(t0), cells);
        s.failed += !ok;
    } while (secondsSince(t0) < seconds);
    s.elapsed_s = secondsSince(t0);
    return s;
}

void
reportPoolTaskUs(Report &rep, const ar::obs::MetricsSnapshot &snap)
{
    const auto h = snap.histograms.find("pool.task_us");
    if (h == snap.histograms.end() || h->second.count == 0) {
        rep.unmeasured("pool.task_us", "us",
                       "no parallelFor item ran on a pool worker (loops "
                       "inside serve requests run inline)");
        return;
    }
    rep.set("pool.task_us",
            h->second.sum / static_cast<double>(h->second.count), "us");
}

void
reportLatency(Report &rep, const Samples &s)
{
    const double width = s.elapsed_s / kWindows;
    std::vector<std::vector<double>> ms(kWindows);
    // Rates credit each op to the windows its run overlaps, in
    // proportion, so a window's rate is not quantized to whole ops
    // (a risk-analysis window holds only about ten studies).
    std::vector<double> ops(kWindows, 0.0), cells(kWindows, 0.0);
    for (std::size_t i = 0; i < s.ms.size(); ++i) {
        const int w = std::min(kWindows - 1,
                               static_cast<int>(s.end_s[i] / width));
        ms[w].push_back(s.ms[i]);
        const double end = s.end_s[i];
        const double begin = std::max(0.0, end - s.ms[i] * 1e-3);
        if (!(end > begin)) {
            ops[w] += 1.0;
            cells[w] += s.cells[i];
            continue;
        }
        for (int k = 0; k < kWindows; ++k) {
            const double lo = std::max(begin, k * width);
            const double hi = std::min(end, (k + 1) * width);
            if (hi > lo) {
                const double share = (hi - lo) / (end - begin);
                ops[k] += share;
                cells[k] += share * s.cells[i];
            }
        }
    }
    std::vector<double> p50, p90, p99, rps, tps;
    for (int w = 0; w < kWindows; ++w) {
        if (ms[w].empty())
            continue;
        p50.push_back(quantile(ms[w], 0.50));
        p90.push_back(quantile(ms[w], 0.90));
        p99.push_back(quantile(ms[w], 0.99));
        rps.push_back(ops[w] / width);
        tps.push_back(cells[w] / width);
    }
    rep.set("op_ms_p50", median(p50), "ms");
    rep.set("op_ms_p90", median(p90), "ms");
    rep.set("op_ms_p99", median(p99), "ms");
    rep.set("requests_per_s", median(rps), "req/s");
    rep.set("trials_per_s", median(tps), "trials/s");
}

} // namespace pb

int
main(int argc, char **argv)
{
    using namespace pb;
    Options opt;
    opt.start = Clock::now();
    opt.nproc = static_cast<std::size_t>(
        std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = val();
        else if (a == "--seed")
            opt.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = val() == "1";
        else if (a == "--out")
            opt.out_dir = val();
        else if (a == "--selftest")
            selftest = true;
        else
            usage(("unknown argument " + a).c_str());
    }

    if (selftest) {
        const auto fails = selfTest();
        for (const auto &f : fails)
            std::printf("FAIL %s\n", f.c_str());
        std::printf("generator self-test: %s (held-out seed %llu)\n",
                    fails.empty() ? "ok" : "FAILED",
                    static_cast<unsigned long long>(kHeldOutSeed));
        return fails.empty() ? 0 : 1;
    }
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");

    void (*run)(const Options &, Report &) = nullptr;
    if (opt.workload == "risk-analysis")
        run = runRiskAnalysis;
    else if (opt.workload == "design-sweep")
        run = runDesignSweep;
    else if (opt.workload == "serve-mixed")
        run = runServeMixed;
    else
        usage("unknown workload");

    opt.out_dir += "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                   "-trace" + (opt.trace ? "1" : "0");
    std::filesystem::create_directories(opt.out_dir);
    if (!optimizedBuild()) {
        std::fprintf(stderr,
                     "perfbench: WARNING: not an optimized build (library "
                     "build type '%s'); timings are not comparable\n",
                     PERFBENCH_LIB_BUILD_TYPE);
    }

    Report rep;
    try {
        run(opt, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    rep.set("peak_rss_mib", peakRssMib(), "MiB");

    // Exactly one metric set leaves the process.
    Report out;
    out.ops(rep.attempted(), rep.failed());
    for (const auto &f : rep.failures())
        out.checkFailed(f);
    if (opt.trace) {
        for (const auto &m : kPerLayer) {
            const auto it = rep.metrics().find(m.name);
            if (it != rep.metrics().end() && !rep.missing().count(m.name))
                out.set(m.name, it->second.value, m.unit);
            else
                rep.unmeasured(m.name, m.unit,
                               notOnPath(opt.workload, m.name));
        }
        for (const auto &[name, why] : rep.missing())
            out.unmeasured(name, rep.metrics().at(name).unit, why);
        Tracer::get().writeSpans(opt.out_dir + "/spans.json");
        writeFile(opt.out_dir + "/ledger.json", ledgerJson(opt, rep));
    } else {
        for (const auto &m : kEndToEnd)
            out.set(m.name, rep.metrics().at(m.name).value, m.unit);
    }

    std::printf("%s\n", hostFactsLine(opt).c_str());
    if (opt.trace) {
        std::printf("layer self time (ms):");
        for (const auto &[layer, ms] : Tracer::get().selfMsByLayer())
            std::printf(" %s=%.1f", layer.c_str(), ms);
        std::printf("\n");
    }
    for (const auto &[name, v] : out.metrics()) {
        const bool missing = out.missing().count(name) > 0;
        std::printf("  %-42s %14.6g %-9s%s\n", name.c_str(), v.value,
                    v.unit.c_str(),
                    missing ? ("  (unmeasured: " + out.missing().at(name) +
                               ")")
                                  .c_str()
                            : "");
    }
    for (const auto &f : rep.failures())
        std::printf("CHECK FAILED: %s\n", f.c_str());
    const std::string result = out.json();
    writeFile(opt.out_dir + "/result.json",
              "{\"host\": " + hostFactsJson(opt) + ", \"result\": " +
                  result + "}\n");
    std::printf("%s\n", result.c_str());
    return 0;
}
