/**
 * @file
 * design-sweep: one op is one fresh explore::DesignSpaceEvaluator over
 * the default enumerateDesigns() list, evaluateAll at a seeded
 * (app class, sigma, fab) point with the default SweepConfig backend
 * and threads = nproc -- the shape of Figs. 10-12 and serve SWEEP.
 */

#include <cmath>
#include <optional>

#include "core/spec.hh"
#include "explore/design_space.hh"
#include "explore/evaluate.hh"
#include "model/app.hh"
#include "model/hill_marty.hh"
#include "model/uncertainty.hh"
#include "obs/telemetry.hh"

#include "gen.hh"
#include "workloads.hh"

namespace pb
{

namespace
{

struct Sweep
{
    std::vector<ar::explore::DesignOutcome> outcomes;
    double construct_ms = 0, evaluate_ms = 0;
};

Sweep
sweep(const std::vector<ar::model::CoreConfig> &designs,
      const SweepPoint &p, std::size_t threads)
{
    ScopedSpan op("op.sweep");
    const auto app = ar::model::appByName(p.app);
    auto uspec = ar::model::UncertaintySpec::all(p.sigma);
    uspec.fab = p.fab;
    ar::explore::SweepConfig cfg; // default backend and trial count
    cfg.seed = p.seed;
    cfg.threads = threads;
    const auto fn = ar::core::makeRiskFunction("quadratic");
    // Reference: the conventional design, one core of the full area.
    const double ref = ar::model::HillMartyEvaluator::nominalSpeedup(
        ar::model::CoreConfig({{256.0, 1}}), app.f, app.c);

    Sweep s;
    auto t0 = Clock::now();
    std::optional<ar::explore::DesignSpaceEvaluator> eval;
    {
        ScopedSpan span("explore.DesignSpaceEvaluator");
        eval.emplace(designs, app, uspec, cfg);
    }
    s.construct_ms = secondsSince(t0) * 1e3;
    t0 = Clock::now();
    {
        ScopedSpan span("explore.evaluateAll");
        s.outcomes = eval->evaluateAll(*fn, ref);
    }
    s.evaluate_ms = secondsSince(t0) * 1e3;
    return s;
}

bool
sane(const Sweep &s, std::size_t designs, std::size_t trials)
{
    if (s.outcomes.size() != designs)
        return false;
    for (const auto &o : s.outcomes) {
        if (!std::isfinite(o.expected) || !std::isfinite(o.risk) ||
            !(o.expected > 0) || o.effective_trials + o.faults != trials)
            return false;
    }
    return true;
}

bool
sameOutcomes(const Sweep &a, const Sweep &b)
{
    if (a.outcomes.size() != b.outcomes.size())
        return false;
    for (std::size_t d = 0; d < a.outcomes.size(); ++d) {
        const auto &x = a.outcomes[d], &y = b.outcomes[d];
        if (!sameBits(x.expected, y.expected) ||
            !sameBits(x.stddev, y.stddev) || !sameBits(x.risk, y.risk) ||
            x.faults != y.faults)
            return false;
    }
    return true;
}

} // namespace

void
runDesignSweep(const Options &opt, Report &rep)
{
    const std::size_t trials = ar::explore::SweepConfig{}.trials;
    std::vector<double> setup_s;
    std::vector<SweepPoint> pts;
    std::vector<ar::model::CoreConfig> designs;
    for (int r = 0; r < kSetupReps; ++r) {
        // The first repetition starts at program entry, so process
        // start-up and input generation count.
        const auto t0 = r == 0 ? opt.start : Clock::now();
        pts = genSweep(opt.seed);
        designs = ar::explore::enumerateDesigns();
        // One cold sweep, at a fab-free point so every seed's set-up
        // does the same work.
        for (const auto &p : pts) {
            if (!p.fab) {
                sweep(designs, p, opt.nproc);
                break;
            }
        }
        setup_s.push_back(secondsSince(t0));
    }
    rep.set("setup_s", median(setup_s), "s");
    writeFile(opt.out_dir + "/inputs.txt",
              dumpInputs(opt.workload, opt.seed, opt.nproc));

    std::vector<std::size_t> runs(pts.size(), 0), bad(pts.size(), 0);
    std::vector<Sweep> first(pts.size());
    std::vector<double> construct, evaluate;
    std::vector<std::vector<double>> point_ms(pts.size());
    std::size_t cursor = 0;
    auto phase = [&](double seconds) {
        Samples smp = timedLoop(
            seconds,
            [&](std::size_t i, double &cells) {
                const std::size_t k = (cursor + i) % pts.size();
                Tracer::get().setOp(i);
                ++runs[k];
                Sweep s;
                try {
                    s = sweep(designs, pts[k], opt.nproc);
                } catch (const std::exception &e) {
                    rep.checkFailed("sweep point " + std::to_string(k) +
                                    ": " + e.what());
                }
                if (!sane(s, designs.size(), trials)) {
                    ++bad[k];
                    return false;
                }
                construct.push_back(s.construct_ms);
                evaluate.push_back(s.evaluate_ms);
                if (first[k].outcomes.empty())
                    first[k] = std::move(s);
                cells = static_cast<double>(designs.size() * trials);
                return true;
            });
        for (std::size_t i = 0; i < smp.ms.size(); ++i)
            point_ms[(cursor + i) % pts.size()].push_back(smp.ms[i]);
        cursor += smp.ms.size();
        rep.ops(smp.ms.size(), smp.failed);
        return smp;
    };

    const Phases ph = phasesFor(opt);
    const Samples untraced = phase(ph.untraced_s);
    reportLatency(rep, untraced);
    {
        std::string table = "# app sigma fab sweeps median_ms\n";
        for (std::size_t k = 0; k < pts.size(); ++k)
            table += pts[k].app + " " + num(pts[k].sigma) + " " +
                     (pts[k].fab ? "1 " : "0 ") +
                     std::to_string(point_ms[k].size()) + " " +
                     num(median(point_ms[k])) + "\n";
        writeFile(opt.out_dir + "/ms_by_point.txt", table);
    }

    if (opt.trace) {
        setTracing(true);
        construct.clear();
        evaluate.clear();
        const Samples traced = phase(ph.traced_s);
        const auto snap = ar::obs::MetricsRegistry::global().scrape();
        rep.set("obs.trace_overhead",
                median(traced.ms) / median(untraced.ms), "ratio");
        reportPoolTaskUs(rep, snap);
        rep.set("explore.construct_ms", median(construct), "ms");
        rep.set("explore.evaluate_ms", median(evaluate), "ms");
        const double nops = std::max<double>(1.0, traced.ms.size());
        for (const char *c : {"sweep.pools_ns", "sweep.compile_ns",
                              "sweep.eval_ns", "sweep.stats_ns"}) {
            const auto it = snap.counters.find(c);
            rep.set(c,
                    it == snap.counters.end()
                        ? 0.0
                        : static_cast<double>(it->second) / nops,
                    "ns");
        }

        // Closed-form Hill-Marty model over every design, at f and c
        // jittered around the first point's app class.
        const auto app = ar::model::appByName(pts[0].app);
        std::vector<std::vector<double>> perf, count;
        for (const auto &d : designs) {
            perf.emplace_back();
            count.emplace_back();
            for (const auto &t : d.types()) {
                perf.back().push_back(std::sqrt(t.area));
                count.back().push_back(static_cast<double>(t.count));
            }
        }
        std::vector<double> per_eval;
        for (int r = 0; r < 5; ++r) {
            ScopedSpan span("model.HillMartyEvaluator.speedup");
            volatile double sink = 0;
            const auto t0 = Clock::now();
            for (int k = 0; k < 64; ++k) {
                const double f = app.f * (1.0 - 0.001 * k);
                for (std::size_t d = 0; d < designs.size(); ++d)
                    sink = sink + ar::model::HillMartyEvaluator::speedup(
                                      f, app.c, perf[d], count[d]);
            }
            per_eval.push_back(secondsSince(t0) * 1e9 /
                               (64.0 * designs.size()));
        }
        rep.set("model.hill_marty_ns_per_eval", median(per_eval),
                "ns/eval");

        // Inverse-CDF draws of the pools' ground-truth distributions.
        std::vector<double> u(trials), out(trials);
        for (std::size_t t = 0; t < trials; ++t)
            u[t] = (static_cast<double>(t) + 0.5) / trials;
        const double sigma = pts[0].sigma;
        const std::vector<ar::dist::DistPtr> dists = {
            ar::model::groundTruthF(app, sigma),
            ar::model::groundTruthC(app, sigma),
            ar::model::groundTruthCorePerf(8.0, sigma, sigma, 0.15),
            ar::model::groundTruthCorePerf(64.0, sigma, sigma, 0.15),
            ar::model::groundTruthCoreCount(8.0, 16),
            ar::model::groundTruthCoreCount(64.0, 2)};
        std::vector<double> per_draw;
        for (int r = 0; r < 5; ++r) {
            ScopedSpan span("dist.sampleFromUniformBatch");
            const auto t0 = Clock::now();
            for (const auto &d : dists)
                d->sampleFromUniformBatch(u.data(), out.data(), trials);
            per_draw.push_back(secondsSince(t0) * 1e9 /
                               static_cast<double>(trials * dists.size()));
        }
        rep.set("dist.quantile_ns_per_draw", median(per_draw), "ns/draw");

        // The same sweep at threads = 1 and nproc.
        std::vector<double> t1, tn;
        for (int r = 0; r < 3; ++r) {
            t1.push_back(sweep(designs, pts[r], 1).evaluate_ms);
            tn.push_back(sweep(designs, pts[r], opt.nproc).evaluate_ms);
        }
        rep.set("mc.thread_speedup", median(t1) / median(tn), "ratio");
        setTracing(false);
    }

    // ---- Correctness checks (outside every timed phase). ----
    for (std::size_t k = 0; k < pts.size(); ++k) {
        if (first[k].outcomes.empty() && runs[k] > 0)
            continue; // every run of this point already failed
        if (first[k].outcomes.empty())
            first[k] = sweep(designs, pts[k], opt.nproc);
    }
    // Same bits at threads = 1 as at nproc, on one fab and one
    // fab-free point.
    for (const bool fab : {true, false}) {
        for (std::size_t k = 0; k < pts.size(); ++k) {
            if (pts[k].fab != fab || first[k].outcomes.empty())
                continue;
            if (!sameOutcomes(sweep(designs, pts[k], 1), first[k])) {
                rep.checkFailed("sweep point " + std::to_string(k) +
                                ": threads=1 differs from threads=" +
                                std::to_string(opt.nproc));
                rep.addFailed(runs[k] - bad[k]);
            }
            break;
        }
    }
    for (const char *kind : {"truncnormal", "normbinomial", "lognormal",
                             "binomial", "categorical"}) {
        rep.unmeasured(std::string("dist.quantile_ns_per_draw.") + kind,
                       "ns/draw",
                       "the per-kind split is measured on risk-analysis; "
                       "design-sweep reports its pooled draw cost");
    }
}

} // namespace pb
