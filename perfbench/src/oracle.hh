/**
 * @file
 * Independent oracles for the generated specs.  They share no code
 * with the Monte-Carlo path: no archrisk header is included, the
 * model equations and risk functions are re-derived here by hand.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include "gen.hh"

namespace pb
{

/** Exact moments of a spec's responsive variable. */
struct Exact
{
    double mean = 0.0;      ///< E[output | trial valid].
    double risk = 0.0;      ///< E[cost | trial valid].
    double reference = 0.0; ///< Reference P used for the risk.
    double p_valid = 1.0;   ///< P(trial is finite).
    double cost_sd = 0.0;   ///< Stddev of the per-trial cost.
};

/**
 * Amdahl family by 1-D quadrature over the truncated-normal density
 * of f; the reference is the speedup at E[f] (the spec front end's
 * certain evaluation), the risk quadratic.
 */
Exact amdahlExact(const SpecCase &c);

/**
 * Memory family by enumerating every joint component state (the
 * unmodeled-state gap included); linear risk against the spec's
 * reference, conditioned on a finite trial as `discard` does.
 */
Exact memoryExact(const SpecCase &c);

} // namespace pb

#endif // PERFBENCH_ORACLE_HH
