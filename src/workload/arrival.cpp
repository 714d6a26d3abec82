#include "workload/arrival.h"

#include <algorithm>
#include <cmath>

namespace pravega::workload {

namespace {
constexpr double kPi = 3.14159265358979323846;
// Below this mean Knuth inversion is cheap and exact; above it the normal
// approximation is within the tolerances any consumer of a count cares
// about (relative error < 1% at mean 32).
constexpr double kInversionCeiling = 32.0;
// Floor for MMPP dwell draws so a pathological exponential draw cannot
// degenerate arrivalsIn() into an unbounded segment walk.
constexpr sim::Duration kMinDwell = sim::msec(1);
}  // namespace

uint64_t poissonCount(double mean, sim::Rng& rng) {
    if (mean <= 0.0) return 0;
    if (mean < kInversionCeiling) {
        const double limit = std::exp(-mean);
        uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= rng.nextDouble();
        } while (p > limit);
        return k - 1;
    }
    // Box–Muller normal approximation, clamped at zero.
    double u1 = rng.nextDouble();
    double u2 = rng.nextDouble();
    if (u1 <= 0.0) u1 = 1e-12;
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
    double value = mean + std::sqrt(mean) * z;
    if (value <= 0.0) return 0;
    return static_cast<uint64_t>(std::llround(value));
}

double DiurnalProfile::factorAt(sim::TimePoint t) const {
    if (period <= 0) return 1.0;
    double x = static_cast<double>(t) / static_cast<double>(period) + phase01;
    return minFactor + (1.0 - minFactor) * 0.5 * (1.0 - std::cos(2.0 * kPi * x));
}

ArrivalProcess::ArrivalProcess(Config cfg, uint64_t seed)
    : cfg_(std::move(cfg)), rng_(seed) {
    if (cfg_.stateFactors.empty()) cfg_.stateFactors = {1.0};
    double sum = 0.0;
    for (double f : cfg_.stateFactors) sum += std::max(f, 0.0);
    // Cyclic chain with equal mean dwell per state → equal long-run
    // occupancy, so normalizing by the plain average keeps the long-run
    // mean rate at eventsPerSec.
    factorNorm_ = sum > 0 ? static_cast<double>(cfg_.stateFactors.size()) / sum : 1.0;
}

uint64_t ArrivalProcess::arrivalsIn(sim::TimePoint from, sim::Duration dt) {
    if (dt <= 0 || cfg_.eventsPerSec <= 0) return 0;
    const sim::TimePoint end = from + dt;

    if (cfg_.kind == Kind::Poisson) {
        double factor = cfg_.diurnal.factorAt(from + dt / 2);
        return poissonCount(cfg_.eventsPerSec * factor * sim::toSeconds(dt), rng_);
    }

    // MMPP: integrate rate over the state segments covering the window.
    uint64_t total = 0;
    sim::TimePoint t = from;
    if (stateUntil_ < 0) {
        stateUntil_ = t + std::max<sim::Duration>(
                              kMinDwell, sim::sec(rng_.nextExp(
                                             sim::toSeconds(cfg_.meanDwell))));
    }
    while (t < end) {
        sim::TimePoint segEnd = std::min(end, stateUntil_);
        if (segEnd > t) {
            double factor = factorNorm_ * cfg_.stateFactors[state_] *
                            cfg_.diurnal.factorAt(t + (segEnd - t) / 2);
            total += poissonCount(
                cfg_.eventsPerSec * factor * sim::toSeconds(segEnd - t), rng_);
            t = segEnd;
        }
        if (t >= stateUntil_) {
            state_ = (state_ + 1) % cfg_.stateFactors.size();
            stateUntil_ = t + std::max<sim::Duration>(
                                  kMinDwell, sim::sec(rng_.nextExp(
                                                 sim::toSeconds(cfg_.meanDwell))));
        }
    }
    return total;
}

}  // namespace pravega::workload
