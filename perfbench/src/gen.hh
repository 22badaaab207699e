/**
 * @file
 * Seeded workload generator.  Every input the program sees -- spec
 * texts, design-space points, serve request scripts -- is a pure
 * function of the seed; the program never sees the seed itself.
 * The mix *composition* (families, modes, verb shares) is fixed and
 * only parameters, order and per-request seeds vary with the seed, so
 * two seeds cost the same and their figures are comparable.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb
{

/** One multi-state component: (level, probability) per state. */
struct StateComp
{
    std::string name;
    std::vector<std::pair<double, double>> states;
};

/** One generated spec plus the parameters its oracle needs. */
struct SpecCase
{
    std::string id;      ///< "amdahl-0", ...
    std::string family;  ///< amdahl | hm-corr | hm-multi | memory
    std::string text;    ///< Spec text handed to core::parseSpec.
    bool stream = false;
    double ci_target = 0.0;
    std::size_t outputs = 1;

    // amdahl: Speedup = 1 / (1 - f + f / s), f ~ TN(mu, sd, 0, 1).
    double s = 0.0, mu = 0.0, sd = 0.0;

    // memory: BW = peak * kofn(2, Ch0..3) * Ctrl * max(L3a, L3b)
    //              * mean(Ch0..3), linear risk against reference.
    std::vector<StateComp> comps; ///< Ch0..Ch3, Ctrl, L3a, L3b.
    double peak = 0.0;
    double reference = 0.0;
};

/** risk-analysis inputs: one corpus at one large trial count. */
struct RiskInputs
{
    std::size_t trials = 0;
    std::vector<SpecCase> corpus;
};

RiskInputs genRisk(std::uint64_t seed, std::size_t nproc);

/** One (app class, sigma, fab) design-space point. */
struct SweepPoint
{
    std::string app;
    double sigma = 0.3;
    bool fab = false;
    std::uint64_t seed = 1; ///< SweepConfig::seed (pool sampling).
};

std::vector<SweepPoint> genSweep(std::uint64_t seed);

/** One archriskd model; owned ones toggle between texts a and b. */
struct ServeModel
{
    std::string name;
    std::string text_a;    ///< Uploaded text (state A).
    std::string text_b;    ///< Full text after the A->B edit.
    std::string patch_b;   ///< EDIT body taking A to B.
    std::string patch_a;   ///< EDIT body taking B to A.
    int owner = -1;        ///< Owning connection; -1 = shared.
};

/** One scripted request. */
struct ServeReq
{
    std::string verb;      ///< RUN | RERUN | EDIT | SENS | SWEEP
    std::string kind;      ///< verb, or RUN+stream / RUN+ci
    std::string line;      ///< Request line without '\n'.
    std::string body;      ///< EDIT payload.
    int model = -1;        ///< Index into ServeInputs::models.
    bool to_b = false;     ///< EDIT direction.
};

struct ServeInputs
{
    std::vector<ServeModel> models;
    /** Per connection: a script replayed cyclically. */
    std::vector<std::vector<ServeReq>> scripts;
};

ServeInputs genServe(std::uint64_t seed, std::size_t conns);

/**
 * serve-mixed's load shape on @p nproc cores: perfbench's main thread
 * (every client connection), the server's event loop, and one request
 * worker per connection on the remaining cores.
 */
inline std::size_t
serveConns(std::size_t nproc)
{
    return nproc > 3 ? nproc - 2 : 1;
}

/** Canonical text of every input of @p workload for @p seed. */
std::string dumpInputs(const std::string &workload, std::uint64_t seed,
                       std::size_t nproc);

/**
 * Generator self-test: the same seed gives byte-identical inputs and
 * a different seed gives different ones.  @return failures (empty =
 * pass).
 */
std::vector<std::string> selfTest();

/** Seed reserved for re-checking claims; never used while tuning. */
inline constexpr std::uint64_t kHeldOutSeed = 918273645;

} // namespace pb

#endif // PERFBENCH_GEN_HH
