#include "oracle.hh"

#include <algorithm>
#include <cmath>
#include <functional>

namespace pb
{

namespace
{

/** Composite Simpson rule of @p g over [a, b] with @p n intervals. */
double
simpson(const std::function<double(double)> &g, double a, double b,
        int n)
{
    const double h = (b - a) / n;
    double sum = g(a) + g(b);
    for (int i = 1; i < n; ++i)
        sum += g(a + i * h) * (i % 2 ? 4.0 : 2.0);
    return sum * h / 3.0;
}

} // namespace

Exact
amdahlExact(const SpecCase &c)
{
    const double lo = std::max(0.0, c.mu - 12.0 * c.sd);
    const double hi = std::min(1.0, c.mu + 12.0 * c.sd);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    const double mass =
        0.5 * (std::erfc(-(1.0 - c.mu) / c.sd * inv_sqrt2) -
               std::erfc(-(0.0 - c.mu) / c.sd * inv_sqrt2));
    auto pdf = [&](double x) {
        const double z = (x - c.mu) / c.sd;
        return std::exp(-0.5 * z * z) /
               (c.sd * std::sqrt(2.0 * M_PI) * mass);
    };
    auto speedup = [&](double f) { return 1.0 / (1.0 - f + f / c.s); };
    constexpr int kIntervals = 20000;

    Exact e;
    const double mean_f = simpson(
        [&](double x) { return x * pdf(x); }, lo, hi, kIntervals);
    e.reference = speedup(mean_f);
    e.mean = simpson([&](double x) { return speedup(x) * pdf(x); }, lo,
                     hi, kIntervals);
    e.risk = simpson(
        [&](double x) {
            const double short_fall =
                std::max(0.0, e.reference - speedup(x));
            return short_fall * short_fall * pdf(x);
        },
        lo, hi, kIntervals);
    const double cost_sq = simpson(
        [&](double x) {
            const double short_fall =
                std::max(0.0, e.reference - speedup(x));
            return std::pow(short_fall, 4) * pdf(x);
        },
        lo, hi, kIntervals);
    e.cost_sd = std::sqrt(std::max(0.0, cost_sq - e.risk * e.risk));
    return e;
}

Exact
memoryExact(const SpecCase &c)
{
    // Outcome lists per component; level NaN marks the gap mass.
    std::vector<std::vector<std::pair<double, double>>> outs;
    for (const auto &comp : c.comps) {
        auto o = comp.states;
        double mass = 0.0;
        for (const auto &s : comp.states)
            mass += s.second;
        if (1.0 - mass > 1e-15)
            o.push_back({std::nan(""), 1.0 - mass});
        outs.push_back(o);
    }

    double p_valid = 0.0, sum_bw = 0.0, sum_cost = 0.0;
    std::vector<double> lv(outs.size());
    std::function<void(std::size_t, double)> walk = [&](std::size_t i,
                                                        double p) {
        if (i == outs.size()) {
            for (const double v : lv)
                if (std::isnan(v))
                    return; // discarded trial
            // comps: Ch0..Ch3, Ctrl, L3a, L3b.
            int working = 0;
            double avg = 0.0;
            for (int ch = 0; ch < 4; ++ch) {
                working += lv[ch] > 0.0;
                avg += lv[ch];
            }
            const double structure = (working >= 2 ? 1.0 : 0.0) *
                                     lv[4] * std::max(lv[5], lv[6]);
            const double bw = c.peak * structure * (avg / 4.0);
            p_valid += p;
            sum_bw += p * bw;
            sum_cost += p * std::max(0.0, c.reference - bw);
            return;
        }
        for (const auto &[level, prob] : outs[i]) {
            lv[i] = level;
            walk(i + 1, p * prob);
        }
    };
    walk(0, 1.0);

    Exact e;
    e.p_valid = p_valid;
    e.mean = sum_bw / p_valid;
    e.risk = sum_cost / p_valid;
    e.reference = c.reference;
    return e;
}

} // namespace pb
