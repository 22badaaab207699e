/**
 * @file
 * risk-analysis: one op is one study -- core::parseSpec + core::runSpec
 * of every spec of a generated corpus at one large trial count with
 * engine threads = nproc, plus VaR/CVaR/histogram on the keep half as
 * the CLI does.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>

#include "core/spec.hh"
#include "mc/copula.hh"
#include "mc/sampler.hh"
#include "obs/telemetry.hh"
#include "risk/var.hh"
#include "stats/histogram.hh"
#include "stats/stream.hh"
#include "symbolic/program.hh"
#include "util/rng.hh"

#include "gen.hh"
#include "oracle.hh"
#include "workloads.hh"

namespace pb
{

namespace
{

/** What a study returned, reduced to what the checks compare. */
struct Outcome
{
    bool ok = false;
    double mean = 0, stddev = 0, risk = 0, ci = 0;
    std::size_t trials_run = 0, blocks = 0, peak = 0, faulty = 0;
    bool early = false;
    std::uint64_t sample_hash = 0;
    double parse_us = 0, run_ms = 0, tail_us = 0;
};

std::uint64_t
hashSamples(const std::vector<double> &xs)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const double x : xs) {
        std::uint64_t b;
        std::memcpy(&b, &x, sizeof b);
        h = (h ^ b) * 1099511628211ULL;
    }
    return h;
}

/** One study; @p threads overrides the spec when nonzero. */
Outcome
study(const SpecCase &c, std::size_t threads = 0, int stream = -1)
{
    ScopedSpan op("op.spec");
    Outcome o;
    auto t0 = Clock::now();
    ar::core::AnalysisSpec spec;
    {
        ScopedSpan s("core.parseSpec");
        spec = ar::core::parseSpec(c.text);
    }
    o.parse_us = secondsSince(t0) * 1e6;
    if (threads)
        spec.threads = threads;
    if (stream >= 0)
        spec.stream = stream != 0;
    t0 = Clock::now();
    ar::core::AnalysisResult res;
    {
        ScopedSpan s("core.runSpec");
        res = ar::core::runSpec(spec);
    }
    o.run_ms = secondsSince(t0) * 1e3;
    if (!res.streamed) {
        // The CLI's tail block: VaR, CVaR and the histogram.
        t0 = Clock::now();
        ScopedSpan s("risk.tail");
        volatile double sink = ar::risk::valueAtRisk(res.samples, 0.05) +
                               ar::risk::conditionalValueAtRisk(
                                   res.samples, 0.05);
        const auto h = ar::stats::Histogram::fromData(res.samples, 14);
        sink = sink + static_cast<double>(h.total());
        o.tail_us = secondsSince(t0) * 1e6;
        o.sample_hash = hashSamples(res.samples);
    }
    o.mean = res.summary.mean;
    o.stddev = res.summary.stddev;
    o.risk = res.risk;
    o.ci = res.stats.empty() ? 0.0 : res.stats[0].risk.ciHalfWidth();
    o.trials_run = res.trials_run;
    o.blocks = res.blocks;
    o.peak = res.peak_bytes;
    o.faulty = res.faults.faulty_trials;
    o.early = res.early_stopped;
    o.ok = std::isfinite(o.mean) && std::isfinite(o.risk) &&
           res.faults.effective_trials > 0;
    return o;
}

/** Per-layer probe of one spec's propagation at threads = 1. */
struct Probe
{
    double uniform_ns = 0, copula_ns = 0, eval_ns = 0, accum_ns = 0;
    double keep_ns = 0, stream_ns = 0, keep_nproc_ns = 0;
    double compile_us = 0;
    std::size_t tape_ops = 0, naive_ops = 0;
    std::map<std::string, std::pair<double, std::size_t>> quantile;
};

/** Distribution kind of each `uncertain`/`states` input of a spec. */
std::map<std::string, std::string>
inputKinds(const std::string &text)
{
    std::map<std::string, std::string> kinds;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string cmd, name, kind;
        ls >> cmd >> name >> kind;
        if (cmd == "uncertain")
            kinds[name] = kind == "lognormal-ms" ? "lognormal" : kind;
        else if (cmd == "states")
            kinds[name] = "categorical";
    }
    return kinds;
}

template <class F>
double
timeNs(const char *span, F &&f)
{
    ScopedSpan s(span);
    const auto t0 = Clock::now();
    f();
    return secondsSince(t0) * 1e9;
}

Probe
probe(const SpecCase &c, std::size_t trials, std::size_t nproc)
{
    Probe p;
    const auto spec = ar::core::parseSpec(c.text);
    const auto kinds = inputKinds(c.text);
    const double n = static_cast<double>(trials);

    ar::mc::PropagationConfig pc{trials, "latin-hypercube", 1,
                                 spec.fault_policy};
    ar::core::Framework fw(pc);
    fw.setSystem(spec.system);
    const ar::symbolic::CompiledProgram *prog = nullptr;
    p.compile_us = timeNs("symbolic.program",
                          [&] { prog = &fw.program(spec.outputs); }) *
                   1e-3;
    p.tape_ops = prog->stats().program_ops;
    p.naive_ops = prog->stats().naive_ops;

    // The uncertain arguments of the tape, in argument order.
    std::vector<std::string> used;
    for (const auto &a : prog->argNames())
        if (spec.bindings.uncertain.count(a))
            used.push_back(a);

    const auto sampler = ar::mc::makeSampler("latin-hypercube");
    ar::util::Rng rng(spec.seed);
    std::optional<ar::mc::UniformDesign> design;
    p.uniform_ns = timeNs("mc.Sampler.design", [&] {
                       design.emplace(sampler->design(trials, used.size(),
                                                      rng));
                   }) / n;

    if (!spec.bindings.correlations.empty()) {
        std::vector<std::size_t> dims;
        std::vector<std::string> names;
        for (std::size_t k = 0; k < used.size(); ++k) {
            for (const auto &corr : spec.bindings.correlations) {
                if (corr.a == used[k] || corr.b == used[k]) {
                    names.push_back(used[k]);
                    dims.push_back(k);
                    break;
                }
            }
        }
        const ar::mc::GaussianCopula copula(names,
                                            spec.bindings.correlations);
        p.copula_ns = timeNs("mc.GaussianCopula.apply", [&] {
                          copula.apply(*design, dims);
                      }) / n;
    }

    std::vector<std::vector<double>> draws(used.size(),
                                           std::vector<double>(trials));
    for (std::size_t k = 0; k < used.size(); ++k) {
        const auto &dist = spec.bindings.uncertain.at(used[k]);
        const double ns = timeNs("dist.sampleFromUniformBatch", [&] {
            dist->sampleFromUniformBatch(design->column(k),
                                         draws[k].data(), trials);
        });
        auto &q = p.quantile[kinds.count(used[k]) ? kinds.at(used[k])
                                                  : "other"];
        q.first += ns;
        q.second += trials;
    }

    // Tape evaluation over the workload's own draws in 256-trial blocks.
    constexpr std::size_t kBlock = 256;
    const auto &names = prog->argNames();
    std::vector<double> fixed(names.size(), 0.0);
    std::vector<int> col(names.size(), -1);
    for (std::size_t a = 0; a < names.size(); ++a) {
        for (std::size_t k = 0; k < used.size(); ++k)
            if (used[k] == names[a])
                col[a] = static_cast<int>(k);
        if (col[a] < 0)
            fixed[a] = spec.bindings.fixed.at(names[a]);
    }
    std::vector<std::vector<double>> outs(prog->numOutputs(),
                                          std::vector<double>(trials));
    p.eval_ns = timeNs("symbolic.evalBatch", [&] {
                    std::vector<ar::symbolic::BatchArg> args(names.size());
                    std::vector<double *> optr(outs.size());
                    for (std::size_t t0 = 0; t0 < trials; t0 += kBlock) {
                        const std::size_t len =
                            std::min(kBlock, trials - t0);
                        for (std::size_t a = 0; a < names.size(); ++a) {
                            args[a] = col[a] < 0
                                          ? ar::symbolic::BatchArg{&fixed[a],
                                                                   true}
                                          : ar::symbolic::BatchArg{
                                                draws[col[a]].data() + t0,
                                                false};
                        }
                        for (std::size_t o = 0; o < outs.size(); ++o)
                            optr[o] = outs[o].data() + t0;
                        prog->evalBatch(args, len, optr);
                    }
                }) / n;

    // Streaming accumulation: per-block partials merged in order.
    const auto fn = ar::core::makeRiskFunction(spec.risk);
    const double ref = spec.reference ? *spec.reference : 1.0;
    p.accum_ns = timeNs("stats.StreamStats", [&] {
                     std::vector<ar::stats::StreamStats> total(outs.size());
                     for (std::size_t t0 = 0; t0 < trials; t0 += kBlock) {
                         const std::size_t len =
                             std::min(kBlock, trials - t0);
                         std::vector<ar::stats::StreamStats> part(
                             outs.size());
                         for (std::size_t o = 0; o < outs.size(); ++o) {
                             for (std::size_t i = 0; i < len; ++i) {
                                 const double x = outs[o][t0 + i];
                                 if (!std::isfinite(x))
                                     continue;
                                 part[o].moments.add(x);
                                 if (o == 0)
                                     part[o].risk.add(fn->cost(x, ref),
                                                      x < ref);
                             }
                         }
                         for (std::size_t o = 0; o < outs.size(); ++o)
                             total[o].merge(part[o]);
                     }
                 }) / n;

    // The whole propagation, same spec and seed, keep vs stream.
    auto propagate = [&](bool keep, std::size_t threads) {
        ar::mc::PropagationConfig cfg = pc;
        cfg.threads = threads;
        cfg.stream.keep_samples = keep;
        return timeNs(keep ? "mc.propagate.keep" : "mc.propagate.stream",
                      [&] {
                          if (spec.outputs.size() > 1)
                              fw.analyzeMulti(spec.outputs, spec.bindings,
                                              *fn, ref, spec.seed, cfg);
                          else
                              fw.analyze(spec.output, spec.bindings, *fn,
                                         ref, spec.seed, cfg);
                      }) / n;
    };
    p.keep_ns = propagate(true, 1);
    p.stream_ns = propagate(false, 1);
    p.keep_nproc_ns = propagate(true, nproc);
    return p;
}

/** The Propagator hooks' own phase counters, per trial. */
void
reportScraped(Report &rep, const ar::obs::MetricsSnapshot &snap)
{
    auto counter = [&](const char *name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
    };
    const double trials = std::max(1.0, counter("mc.trials"));
    rep.set("mc.sample_ns_per_trial", counter("mc.sample_ns") / trials,
            "ns/trial");
    rep.set("mc.eval_ns_per_trial", counter("mc.eval_ns") / trials,
            "ns/trial");
    reportPoolTaskUs(rep, snap);
}

/**
 * Layer probes on the keep spec of every family, three rounds each
 * (medians), and the ledger arithmetic over them.
 */
void
reportProbes(Report &rep, const RiskInputs &in, std::size_t nproc)
{
    Probe sum;
    std::map<std::string, std::pair<double, std::size_t>> quant;
    std::vector<double> compile;
    double fams = 0;
    for (const auto &c : in.corpus) {
        if (c.stream)
            continue;
        fams += 1;
        std::vector<Probe> rounds;
        for (int r = 0; r < 3; ++r)
            rounds.push_back(probe(c, in.trials, nproc));
        auto med = [&](double Probe::*f) {
            std::vector<double> v;
            for (const auto &p : rounds)
                v.push_back(p.*f);
            return median(v);
        };
        sum.uniform_ns += med(&Probe::uniform_ns);
        sum.copula_ns += med(&Probe::copula_ns);
        sum.eval_ns += med(&Probe::eval_ns);
        sum.accum_ns += med(&Probe::accum_ns);
        sum.keep_ns += med(&Probe::keep_ns);
        sum.stream_ns += med(&Probe::stream_ns);
        sum.keep_nproc_ns += med(&Probe::keep_nproc_ns);
        compile.push_back(med(&Probe::compile_us));
        sum.tape_ops += rounds[0].tape_ops;
        sum.naive_ops += rounds[0].naive_ops;
        for (const auto &[kind, q] : rounds[1].quantile) {
            quant[kind].first += q.first;
            quant[kind].second += q.second;
        }
    }
    double qns = 0, qdraws = 0;
    for (const auto &[kind, q] : quant) {
        rep.set("dist.quantile_ns_per_draw." + kind,
                q.first / static_cast<double>(q.second), "ns/draw");
        qns += q.first;
        qdraws += static_cast<double>(q.second);
    }
    // Per-family means, all at threads = 1; draws are summed over a
    // spec's inputs to give their cost per trial.
    const double q_trial = qns / static_cast<double>(in.trials) / fams;
    const double keep = sum.keep_ns / fams;
    rep.set("dist.quantile_ns_per_draw", qdraws > 0 ? qns / qdraws : 0,
            "ns/draw");
    rep.set("mc.uniform_ns_per_trial", sum.uniform_ns / fams, "ns/trial");
    rep.set("mc.copula_ns_per_trial", sum.copula_ns / fams, "ns/trial");
    rep.set("symbolic.eval_ns_per_trial", sum.eval_ns / fams, "ns/trial");
    rep.set("stats.accumulate_ns_per_trial", sum.accum_ns / fams,
            "ns/trial");
    rep.set("mc.propagate_ns_per_trial.keep", keep, "ns/trial");
    rep.set("mc.propagate_ns_per_trial.stream", sum.stream_ns / fams,
            "ns/trial");
    const double parts = (sum.uniform_ns + sum.copula_ns + sum.eval_ns +
                          sum.accum_ns) / fams + q_trial;
    rep.set("mc.unattributed_share", 1.0 - parts / keep, "share");
    rep.set("mc.stream_over_keep", sum.stream_ns / sum.keep_ns, "ratio");
    rep.set("mc.thread_speedup", sum.keep_ns / sum.keep_nproc_ns, "ratio");
    rep.set("symbolic.compile_us", median(compile), "us");
    rep.set("symbolic.tape_ops", static_cast<double>(sum.tape_ops), "ops");
    rep.set("symbolic.cse_saved_share",
            1.0 - static_cast<double>(sum.tape_ops) /
                      static_cast<double>(sum.naive_ops),
            "share");
}

} // namespace

void
runRiskAnalysis(const Options &opt, Report &rep)
{
    std::vector<double> setup_s;
    RiskInputs in;
    for (int r = 0; r < kSetupReps; ++r) {
        // The first repetition starts at program entry, so process
        // start-up and input generation count.
        const auto t0 = r == 0 ? opt.start : Clock::now();
        in = genRisk(opt.seed, opt.nproc);
        for (const auto &c : in.corpus) // the cold first study
            study(c);
        setup_s.push_back(secondsSince(t0));
    }
    rep.set("setup_s", median(setup_s), "s");
    writeFile(opt.out_dir + "/inputs.txt",
              dumpInputs(opt.workload, opt.seed, opt.nproc));

    // One op = one study: parse + run of every spec of the corpus.
    const std::size_t nc = in.corpus.size();
    std::vector<Outcome> first(nc);
    std::vector<std::vector<Outcome>> traced(nc);
    std::vector<std::vector<double>> spec_ms(nc);
    std::size_t ok_ops = 0;
    auto phase = [&](double seconds, bool keep_outcomes) {
        Samples smp = timedLoop(
            seconds,
            [&](std::size_t i, double &cells) {
                Tracer::get().setOp(i);
                ScopedSpan op("op.study");
                bool ok = true;
                for (std::size_t k = 0; k < nc; ++k) {
                    const auto t0 = Clock::now();
                    Outcome o;
                    try {
                        o = study(in.corpus[k]);
                    } catch (const std::exception &e) {
                        rep.checkFailed(in.corpus[k].id + ": " + e.what());
                    }
                    spec_ms[k].push_back(secondsSince(t0) * 1e3);
                    if (!o.ok) {
                        ok = false;
                        continue;
                    }
                    if (!first[k].ok)
                        first[k] = o;
                    if (keep_outcomes)
                        traced[k].push_back(o);
                    cells += static_cast<double>(o.trials_run *
                                                 in.corpus[k].outputs);
                }
                ok_ops += ok;
                return ok;
            });
        rep.ops(smp.ms.size(), smp.failed);
        return smp;
    };

    const Phases ph = phasesFor(opt);
    const Samples untraced = phase(ph.untraced_s, false);
    reportLatency(rep, untraced);
    {
        std::string table = "# spec studies median_ms trials_run\n";
        for (std::size_t k = 0; k < nc; ++k)
            table += in.corpus[k].id + " " +
                     std::to_string(spec_ms[k].size()) + " " +
                     num(median(spec_ms[k])) + " " +
                     std::to_string(first[k].trials_run) + "\n";
        writeFile(opt.out_dir + "/ms_by_spec.txt", table);
    }

    if (opt.trace) {
        setTracing(true);
        const Samples traced_smp = phase(ph.traced_s, true);
        const auto snap = ar::obs::MetricsRegistry::global().scrape();
        rep.set("obs.trace_overhead",
                median(traced_smp.ms) / median(untraced.ms), "ratio");
        reportScraped(rep, snap);

        std::vector<double> parse, keep_ms, stream_ms, tail;
        double blocks = 0, trials = 0, faulty = 0, peak = 0, nruns = 0;
        std::size_t early = 0, ci_runs = 0;
        for (std::size_t k = 0; k < nc; ++k) {
            for (const auto &o : traced[k]) {
                parse.push_back(o.parse_us);
                (in.corpus[k].stream ? stream_ms : keep_ms)
                    .push_back(o.run_ms);
                if (!in.corpus[k].stream)
                    tail.push_back(o.tail_us);
                blocks += static_cast<double>(o.blocks);
                trials += static_cast<double>(o.trials_run);
                faulty += static_cast<double>(o.faulty);
                peak = std::max(peak, static_cast<double>(o.peak));
                nruns += 1;
                if (in.corpus[k].ci_target > 0.0) {
                    ++ci_runs;
                    early += o.early;
                }
            }
        }
        rep.set("core.parse_us", median(parse), "us");
        rep.set("core.runspec_ms.keep", median(keep_ms), "ms");
        rep.set("core.runspec_ms.stream", median(stream_ms), "ms");
        rep.set("risk.tail_us", median(tail), "us");
        rep.set("mc.blocks", blocks / std::max(1.0, nruns), "count");
        rep.set("mc.fault_share", trials > 0 ? faulty / trials : 0,
                "share");
        rep.set("mc.early_stop_share",
                ci_runs ? static_cast<double>(early) / ci_runs : 0, "share");
        rep.set("mc.engine_peak_bytes", peak, "bytes");
        reportProbes(rep, in, opt.nproc);
        setTracing(false);
    }

    // ---- Correctness checks (outside every timed phase). ----
    bool all_ok = true;
    auto failCase = [&](std::size_t k, const std::string &why) {
        rep.checkFailed(in.corpus[k].id + ": " + why);
        all_ok = false;
    };
    for (std::size_t k = 0; k < nc; ++k) {
        const auto &c = in.corpus[k];
        if (!first[k].ok) {
            try {
                first[k] = study(c);
            } catch (const std::exception &e) {
                failCase(k, e.what());
                continue;
            }
        }
        const auto &o = first[k];
        // Fixed-seed k*CI acceptance: 6 standard errors of the mean
        // (iid bound; LHS is tighter), 3x the engine's 95% risk CI.
        const double n_eff = static_cast<double>(o.trials_run - o.faulty);
        const double se = o.stddev / std::sqrt(n_eff);
        if (c.family == "amdahl" || c.family == "memory") {
            const Exact e =
                c.family == "amdahl" ? amdahlExact(c) : memoryExact(c);
            if (std::fabs(o.mean - e.mean) > 6.0 * se + 1e-12 * e.mean)
                failCase(k, "mean " + num(o.mean) + " vs exact " +
                                num(e.mean));
            if (std::fabs(o.risk - e.risk) > 3.0 * o.ci + 1e-12)
                failCase(k, "risk " + num(o.risk) + " vs exact " +
                                num(e.risk));
            const double p_bad = 1.0 - e.p_valid;
            const double share = static_cast<double>(o.faulty) /
                                 static_cast<double>(o.trials_run);
            if (std::fabs(share - p_bad) >
                6.0 * std::sqrt(p_bad * (1 - p_bad) / o.trials_run) + 1e-12)
                failCase(k, "fault share " + num(share) + " vs exact " +
                                num(p_bad));
        }
        // Same bits at threads = 1 as at nproc.
        const Outcome one = study(c, 1);
        if (!sameBits(one.mean, o.mean) || !sameBits(one.stddev, o.stddev) ||
            !sameBits(one.risk, o.risk) ||
            one.sample_hash != o.sample_hash ||
            one.trials_run != o.trials_run)
            failCase(k, "threads=1 differs from threads=" +
                            std::to_string(opt.nproc));
        if (!c.stream) {
            // Streamed vs kept: ROADMAP item 2's 1e-12 allowance.
            const Outcome s = study(c, 0, 1);
            if (!closeRel(s.mean, o.mean, 1e-12) ||
                !closeRel(s.stddev, o.stddev, 1e-12) ||
                !closeRel(s.risk, o.risk, 1e-12))
                failCase(k, "stream differs from keep beyond 1e-12");
        }
    }
    if (!all_ok) // every study ran every spec, so every op is wrong
        rep.addFailed(ok_ops);
}

} // namespace pb
