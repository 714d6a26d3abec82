// Aggregate arrival processes for fleet-scale workload modeling.
//
// Per-writer client objects cost ~1 DES event per event written, which caps
// a simulation at tens of writers. To model a fleet (~10k streams, ~1M
// producers) the workload layer collapses each stream's producer population
// into ONE arrival process sampled per tick: the number of events the
// population would have produced in the tick window. A Poisson process is
// the exact aggregate of many independent producers; MMPP (Markov-modulated
// Poisson) adds burstiness by switching the rate between states with
// exponentially-distributed dwell times; a diurnal profile modulates the
// rate on a slow periodic ramp. Everything is driven by an owned Rng, so a
// stream's arrival sequence depends only on (seed, virtual time) — never on
// core count or on other streams.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "sim/time.h"

namespace pravega::workload {

/// Samples a Poisson(mean) count. Knuth inversion for small means, a
/// clamped normal approximation (Box–Muller) for large ones — one regime
/// switch at mean 32, both branches deterministic.
uint64_t poissonCount(double mean, sim::Rng& rng);

/// Slow periodic rate modulation (the daily ramp in §3.1's motivating
/// workloads). Raised-cosine between `minFactor` (trough) and 1.0 (peak);
/// phase 0 starts at the trough so ramp-up is observable from t=0.
struct DiurnalProfile {
    sim::Duration period = 0;  ///< 0 disables the profile (factor 1.0).
    double minFactor = 1.0;
    double phase01 = 0.0;  ///< fraction of a period to shift the ramp

    double factorAt(sim::TimePoint t) const;
};

/// One stream's aggregate producer population.
class ArrivalProcess {
public:
    enum class Kind { Poisson, Mmpp };

    struct Config {
        Kind kind = Kind::Poisson;
        /// Long-run mean arrival rate of the whole population.
        double eventsPerSec = 0.0;
        /// MMPP rate multipliers per state; dwell in each state is
        /// exponential with mean `meanDwell`. Factors are normalized so the
        /// long-run mean rate stays `eventsPerSec`.
        std::vector<double> stateFactors = {0.25, 1.75};
        sim::Duration meanDwell = sim::sec(1);
        DiurnalProfile diurnal;
    };

    ArrivalProcess(Config cfg, uint64_t seed);

    /// Arrivals in [from, from+dt); advances MMPP state through the window.
    uint64_t arrivalsIn(sim::TimePoint from, sim::Duration dt);

    const Config& config() const { return cfg_; }

private:
    Config cfg_;
    sim::Rng rng_;
    double factorNorm_ = 1.0;  // normalizes stateFactors to mean 1
    size_t state_ = 0;
    sim::TimePoint stateUntil_ = -1;  // -1: dwell not yet drawn
};

}  // namespace pravega::workload
