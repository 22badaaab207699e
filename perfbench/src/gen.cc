#include "gen.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common.hh"
#include "oracle.hh"

namespace pb
{

namespace
{

/** Trials of every risk-analysis study: a one-input design plus its
 * retained samples (16 B/trial) is 2.5 MiB, past a 2 MiB per-core L2. */
constexpr std::size_t kRiskTrials = 163840;

/** Cycles of 40 requests in each serve script (replayed cyclically). */
constexpr std::size_t kCycles = 100;

/** Text form of a generated parameter (6 significant digits). */
std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** The value the spec parser will read back from fmt(v). */
double
rd(double v)
{
    return std::strtod(fmt(v).c_str(), nullptr);
}

/** Shared Hill-Marty trunk (Eq. 3-5 of the paper, asymmetric CMP). */
const char *kHillMartyTrunk =
    "T_seq = (1 - f + c * N_total) / P_serial\n"
    "T_par = f / P_parallel\n"
    "P_serial = max(P_big * gtz(N_big), P_small * gtz(N_small))\n"
    "P_parallel = N_big * P_big + N_small * P_small\n"
    "N_total = N_big + N_small\n";

std::string
runDirectives(const SpecCase &c, std::size_t trials, std::uint64_t seed,
              std::size_t threads)
{
    std::string t = "trials " + std::to_string(trials) + "\nseed " +
                    std::to_string(seed) + "\nthreads " +
                    std::to_string(threads) + "\n";
    if (c.stream)
        t += "stream on\n";
    if (c.ci_target > 0.0)
        t += "ci_target " + fmt(c.ci_target) + "\n";
    return t;
}

void
genAmdahl(SpecCase &c, SeedRng &r)
{
    static const double kCores[] = {16, 32, 64};
    c.s = kCores[r.below(3)];
    c.mu = rd(r.uniform(0.92, 0.97));
    c.sd = rd(r.uniform(0.01, 0.025));
    c.text = "Speedup = 1 / (1 - f + f / s)\n"
             "fixed s " + fmt(c.s) + "\n"
             "uncertain f truncnormal " + fmt(c.mu) + " " + fmt(c.sd) +
             " 0 1\n"
             "output Speedup\n"
             "risk quadratic\n";
}

void
genHillMartyCorr(SpecCase &c, SeedRng &r)
{
    const double pb = r.uniform(10.8, 11.8), ps = r.uniform(2.7, 2.95);
    c.text = std::string("Speedup = 1 / (T_seq + T_par)\n") +
             kHillMartyTrunk +
             "uncertain f normbinomial 225 " + fmt(r.uniform(0.88, 0.92)) +
             "\nuncertain c normbinomial 2475 " +
             fmt(r.uniform(0.009, 0.011)) +
             "\nuncertain P_big lognormal-ms " + fmt(pb) + " " +
             fmt(0.2 * pb) +
             "\nuncertain P_small lognormal-ms " + fmt(ps) + " " +
             fmt(0.2 * ps) +
             "\nuncertain N_big binomial 1 " + fmt(r.uniform(0.72, 0.78)) +
             "\nuncertain N_small binomial 16 " +
             fmt(r.uniform(0.97, 0.99)) +
             "\ncorrelate f c " + fmt(r.uniform(0.2, 0.4)) +
             "\noutput Speedup\nrisk quadratic\n";
}

/** Multi-output Hill-Marty; also the archriskd model family (with
 * @p scale as the one constant EDIT toggles). */
std::string
hillMartyMulti(SeedRng &r, const std::string &scale,
               const std::string &outputs)
{
    const double pb = r.uniform(10.8, 11.8), ps = r.uniform(2.7, 2.95);
    return std::string("Speedup = Scale / (T_seq + T_par)\n"
                       "Efficiency = Speedup / N_total\n") +
           kHillMartyTrunk + "Scale = " + scale + "\n" +
           "fixed N_big 1\nfixed N_small " +
           std::to_string(12 + 2 * r.below(3)) +
           "\nuncertain f normbinomial 225 " + fmt(r.uniform(0.88, 0.92)) +
           "\nuncertain c normbinomial 2475 " +
           fmt(r.uniform(0.009, 0.011)) +
           "\nuncertain P_big lognormal-ms " + fmt(pb) + " " +
           fmt(0.2 * pb) +
           "\nuncertain P_small lognormal-ms " + fmt(ps) + " " +
           fmt(0.2 * ps) + "\noutput " + outputs +
           "\nrisk quadratic\n";
}

void
genMemory(SpecCase &c, SeedRng &r)
{
    c.peak = rd(r.uniform(90.0, 110.0));
    c.reference = rd(0.9 * c.peak);
    std::string states;
    auto comp = [&](const std::string &name,
                    std::vector<std::pair<std::string, double>> levels,
                    std::vector<double> probs) {
        StateComp sc{name, {}};
        std::string line = "states " + name;
        for (std::size_t i = 0; i < levels.size(); ++i) {
            const double p = rd(probs[i]);
            const double lv = rd(levels[i].second);
            sc.states.push_back({lv, p});
            line += " " + levels[i].first + ":" + fmt(lv) + ":" + fmt(p);
        }
        c.comps.push_back(sc);
        states += line + "\n";
    };
    for (int ch = 0; ch < 4; ++ch) {
        // Up/slow/down leave a 0-5% unmodeled gap: those trials are
        // NaN and `fault_policy discard` drops them.
        comp("Ch" + std::to_string(ch),
             {{"up", 1.0}, {"slow", r.uniform(0.5, 0.7)}, {"down", 0.0}},
             {r.uniform(0.88, 0.92), r.uniform(0.04, 0.06),
              r.uniform(0.01, 0.02)});
    }
    // Gap-free components: four-decimal probabilities summing to 1.
    auto split = [&](double lo, double hi) {
        const double up = std::round(r.uniform(lo, hi) * 1e4);
        return std::vector<double>{up / 1e4, (1e4 - up) / 1e4};
    };
    comp("Ctrl", {{"up", 1.0}, {"down", 0.0}}, split(0.96, 0.99));
    for (const char *l3 : {"L3a", "L3b"})
        comp(l3, {{"up", 1.0}, {"down", 0.0}}, split(0.93, 0.97));
    c.text = "BW = PeakBW * Structure * ChannelAvg\n"
             "ChannelAvg = (Ch0 + Ch1 + Ch2 + Ch3) / 4\n"
             "structure kofn(2, Ch0, Ch1, Ch2, Ch3) * "
             "series(Ctrl, parallel(L3a, L3b))\n"
             "fixed PeakBW " + fmt(c.peak) + "\n" + states +
             "output BW\n"
             "reference " + fmt(c.reference) + "\n"
             "risk linear\n"
             "fault_policy discard\n";
}

} // namespace

RiskInputs
genRisk(std::uint64_t seed, std::size_t nproc)
{
    SeedRng r(seed ^ 0x5249534bULL);
    RiskInputs in;
    in.trials = kRiskTrials;
    // One kept and one streamed spec per family.  Two of the streamed
    // ones carry a risk-CI target that stops them near half their
    // trials: Amdahl's is sized from its exact cost stddev, the
    // multi-output Hill-Marty one from its nominal parameters.
    for (const char *family : {"amdahl", "hm-corr", "hm-multi", "memory"}) {
        for (const bool stream : {false, true}) {
            SpecCase c;
            c.family = family;
            c.id = c.family + (stream ? "-stream" : "-keep");
            c.stream = stream;
            if (c.family == "amdahl") {
                genAmdahl(c, r);
                if (stream) {
                    c.ci_target = rd(1.96 * amdahlExact(c).cost_sd /
                                     std::sqrt(in.trials / 2.0));
                }
            } else if (c.family == "hm-corr") {
                genHillMartyCorr(c, r);
            } else if (c.family == "hm-multi") {
                c.text = hillMartyMulti(r, "1", "Speedup Efficiency T_par");
                c.outputs = 3;
                c.ci_target = stream ? 0.1 : 0.0;
            } else {
                genMemory(c, r);
            }
            c.text += runDirectives(c, in.trials, 1 + r.below(1000000),
                                    nproc);
            in.corpus.push_back(std::move(c));
        }
    }
    return in;
}

std::vector<SweepPoint>
genSweep(std::uint64_t seed)
{
    SeedRng r(seed ^ 0x5357454550ULL);
    static const char *kApps[] = {"HPLC", "HPHC", "LPLC", "LPHC"};
    std::vector<SweepPoint> pts;
    // A Latin square of app class x sigma level, jittered: every seed
    // sweeps the same mix, since pool draw cost grows with sigma.
    static const double kSigma[] = {0.2, 0.25, 0.3, 0.35};
    for (int i = 0; i < 16; ++i) {
        SweepPoint p;
        p.app = kApps[i % 4];
        p.sigma = rd(kSigma[(i / 4 + i % 4) % 4] + r.uniform(-0.01, 0.01));
        p.fab = i < 4; // one fab point per app class and sigma level
        p.seed = 1 + r.below(1000000);
        pts.push_back(p);
    }
    for (std::size_t i = pts.size() - 1; i > 0; --i)
        std::swap(pts[i], pts[r.below(i + 1)]);
    return pts;
}

ServeInputs
genServe(std::uint64_t seed, std::size_t conns)
{
    SeedRng r(seed ^ 0x5345525645ULL);
    ServeInputs in;
    const std::string outs = "Speedup Efficiency";
    auto model = [&](const std::string &name, int owner) {
        ServeModel m;
        m.name = name;
        m.owner = owner;
        SeedRng fork(r.next());
        SeedRng again = fork;
        m.text_a = hillMartyMulti(fork, "0.99", outs) +
                   "trials 10000\nseed 1\n";
        m.text_b = hillMartyMulti(again, "0.97", outs) +
                   "trials 10000\nseed 1\n";
        m.patch_b = "Scale = 0.97\n";
        m.patch_a = "Scale = 0.99\n";
        in.models.push_back(m);
    };
    for (int s = 0; s < 4; ++s)
        model("shared" + std::to_string(s), -1);
    for (std::size_t c = 0; c < conns; ++c)
        for (int k = 0; k < 2; ++k)
            model("c" + std::to_string(c) + "m" + std::to_string(k),
                  static_cast<int>(c));

    auto shared = [&] { return static_cast<int>(r.below(4)); };
    auto seedArg = [&] {
        return " seed=" + std::to_string(1 + r.below(1000000));
    };
    auto run = [&](int m, const std::string &extra) {
        ServeReq q;
        q.verb = "RUN";
        q.kind = extra.find("stream") != std::string::npos ? "RUN+stream"
                 : extra.empty()                            ? "RUN"
                                                            : "RUN+ci";
        q.model = m;
        q.line = "RUN " + in.models[m].name + " trials=10000" +
                 seedArg() + extra;
        return std::vector<ServeReq>{q};
    };
    static const char *kApps[] = {"HPLC", "HPHC", "LPLC", "LPHC"};

    in.scripts.resize(conns);
    for (std::size_t c = 0; c < conns; ++c) {
        std::vector<int> own, other;
        for (std::size_t m = 0; m < in.models.size(); ++m) {
            if (in.models[m].owner == static_cast<int>(c))
                own.push_back(static_cast<int>(m));
            else if (in.models[m].owner >= 0)
                other.push_back(static_cast<int>(m));
        }
        for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
            // One cycle = 40 requests.  By cost: EDIT 10% < RUN with
            // ci_target= 5% < RUN/RERUN 45% < SENS 35% < SWEEP 2.5%
            // < RUN with stream= 2.5% (its PART frames stall on the
            // socket), so p50 falls inside RUN/RERUN, p90 inside SENS
            // and p99 inside streamed RUN, each away from a boundary.
            std::vector<std::vector<ServeReq>> units;
            for (const int em : own) {
                for (const bool to_b : {true, false}) {
                    ServeReq e, rr;
                    e.verb = e.kind = "EDIT";
                    e.model = em;
                    e.to_b = to_b;
                    e.body = to_b ? in.models[em].patch_b
                                  : in.models[em].patch_a;
                    e.line = "EDIT " + in.models[em].name + " " +
                             std::to_string(e.body.size());
                    rr.verb = rr.kind = "RERUN";
                    rr.model = em;
                    rr.line = "RERUN " + in.models[em].name +
                              " trials=10000" + seedArg();
                    units.push_back({e, rr});
                }
            }
            for (int i = 0; i < 10; ++i)
                units.push_back(run(shared(), ""));
            for (int i = 0; i < 4; ++i)
                units.push_back(
                    run(other.empty() ? shared()
                                      : other[r.below(other.size())],
                        ""));
            for (int i = 0; i < 2; ++i)
                units.push_back(run(shared(), " ci_target=0.6"));
            units.push_back(run(shared(), " stream=8"));
            for (int i = 0; i < 14; ++i) {
                ServeReq q;
                q.verb = q.kind = "SENS";
                q.model = shared();
                q.line = "SENS " + in.models[q.model].name +
                         " trials=4096" + seedArg();
                units.push_back({q});
            }
            {
                ServeReq q;
                q.verb = q.kind = "SWEEP";
                q.line = std::string("SWEEP app=") + kApps[r.below(4)] +
                         " sigma=" + fmt(r.uniform(0.2, 0.4)) +
                         " area=256 trials=300 fab=0" + seedArg();
                units.push_back({q});
            }
            for (std::size_t i = units.size() - 1; i > 0; --i)
                std::swap(units[i], units[r.below(i + 1)]);
            // Per edited model, keep its A->B pair ahead of its B->A
            // pair so every cycle leaves the model in state A.
            for (const int em : own) {
                std::vector<std::size_t> at;
                for (std::size_t i = 0; i < units.size(); ++i)
                    if (units[i][0].verb == "EDIT" &&
                        units[i][0].model == em)
                        at.push_back(i);
                if (!units[at[0]][0].to_b)
                    std::swap(units[at[0]], units[at[1]]);
            }
            for (auto &u : units)
                for (auto &q : u)
                    in.scripts[c].push_back(q);
        }
    }
    return in;
}

std::string
dumpInputs(const std::string &workload, std::uint64_t seed,
           std::size_t nproc)
{
    std::ostringstream o;
    if (workload == "risk-analysis") {
        const auto in = genRisk(seed, nproc);
        for (const auto &c : in.corpus)
            o << "### spec " << c.id << "\n" << c.text;
    } else if (workload == "design-sweep") {
        for (const auto &p : genSweep(seed))
            o << "point app=" << p.app << " sigma=" << fmt(p.sigma)
              << " fab=" << p.fab << " seed=" << p.seed << "\n";
    } else {
        const auto in = genServe(seed, serveConns(nproc));
        for (const auto &m : in.models) {
            o << "### model " << m.name << " owner=" << m.owner << "\n"
              << m.text_a << "### edit-to-b\n" << m.patch_b
              << "### edit-to-a\n" << m.patch_a;
        }
        for (std::size_t c = 0; c < in.scripts.size(); ++c) {
            o << "### script conn=" << c << "\n";
            for (const auto &q : in.scripts[c])
                o << q.line << "\n" << q.body;
        }
    }
    return o.str();
}

std::vector<std::string>
selfTest()
{
    std::vector<std::string> fails;
    for (const char *w : {"risk-analysis", "design-sweep", "serve-mixed"}) {
        const std::string a = dumpInputs(w, 7, 4);
        if (a != dumpInputs(w, 7, 4))
            fails.push_back(std::string(w) + ": seed 7 is not repeatable");
        if (a == dumpInputs(w, 8, 4))
            fails.push_back(std::string(w) +
                            ": seeds 7 and 8 give the same inputs");
        if (a.empty())
            fails.push_back(std::string(w) + ": no inputs generated");
    }
    return fails;
}

} // namespace pb
