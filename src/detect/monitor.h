// detect::Monitor — the virtual-time sampler that turns the obs:: registry
// into detector input. A weak self-rearming timer polls configured probes
// every `period` of virtual time, extracts one scalar sample per probe
// (counter rate, gauge value, meter rate, or a windowed histogram
// percentile via LatencyHistogram::deltaSince), and feeds the probe's
// attached detectors. Detector fires become Alarms with onset/clear times;
// SLO guardrails are evaluated on the same cadence.
//
// Determinism: probes and guardrails are stored and iterated in insertion
// order, samples derive from virtual time only, and the timer is WEAK so a
// monitor never keeps `runUntilIdle` busy — same-seed runs produce
// byte-identical alarm logs (asserted in tests/detect_test.cpp).
//
// Sampling edge cases are skips, not zeros: the first tick of a
// counter-rate probe (no previous value), an empty histogram window, a
// missing instrument, or a non-finite gauge produce NO sample for that
// tick (counted in `detect.samples.skipped`), so cold starts and idle
// phases cannot poison a baseline or fake a rate collapse.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/detectors.h"
#include "detect/slo.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/timer.h"

namespace pravega::detect {

struct ProbeConfig {
    enum class Source {
        CounterRate,  // (counter delta) / (tick dt), per second
        Gauge,        // instantaneous gauge value
        MeterRate,    // RateMeter::perSecond()
        HistP50Ms,    // p50 of samples recorded since the previous tick, ms
        HistP99Ms,    // p99 of samples recorded since the previous tick, ms
    };

    std::string metric;
    Source source = Source::CounterRate;

    // Attached detectors (any subset).
    std::optional<EwmaDetector::Config> ewma;
    std::optional<CusumDetector::Config> cusum;
    std::optional<RateCollapseDetector::Config> rateCollapse;
};

class Monitor {
public:
    struct Config {
        sim::Duration period = sim::msec(10);
        /// Scales detector warmup: probes added by `addDefaultWritePathProbes`
        /// arm after `warmupSamples` baseline samples.
        int warmupSamples = 40;
    };

    explicit Monitor(sim::Core& exec) : Monitor(exec, Config()) {}
    Monitor(sim::Core& exec, Config cfg);
    Monitor(const Monitor&) = delete;
    Monitor& operator=(const Monitor&) = delete;

    void addProbe(ProbeConfig probe);
    /// Parses and installs a guardrail rule; aborts on grammar errors (a
    /// bad rule is a programming bug, not a runtime condition).
    void addGuardrail(const std::string& ruleText);
    void addGuardrail(SloRule rule);

    /// The standard write-path fault battery: WAL commit-latency spike
    /// (EWMA + CUSUM on windowed p99), bookie unavailability-rejection and
    /// network partition-drop rate spikes, append-rate collapse, and LTS
    /// flush-failure / backlog probes. This is the "default detector
    /// settings" profile scored by bench_fig14_detection.
    void addDefaultWritePathProbes();

    /// Starts sampling; idempotent. Samples begin one period from now.
    void start();
    /// Stops sampling and closes still-active alarms at the current time;
    /// idempotent. Call before draining a bench world so the end-of-run
    /// traffic ramp-down is not scored as a rate collapse.
    void stop();
    bool running() const { return timer_.armed(); }

    const std::vector<Alarm>& alarms() const { return alarms_; }
    /// Alarms excluding guardrail (Slo) fires — the detector-only view.
    size_t detectorAlarmCount() const;
    std::vector<SloVerdict> guardrailVerdicts() const;
    /// True when every guardrail held over the whole run (hard-assert form).
    bool guardrailsPassed() const;
    uint64_t ticks() const { return ticks_; }

    /// Deterministic JSON array of the alarm log:
    /// [{"t_ms":..,"detector":"..","metric":"..","kind":"..","value":..,
    ///   "score":..,"cleared_ms":..}, ...]  (cleared_ms -1 = still active).
    std::string alarmsJson() const;
    /// Deterministic JSON array of guardrail verdicts.
    std::string guardrailsJson() const;

private:
    struct ProbeState {
        ProbeConfig cfg;
        std::optional<EwmaDetector> ewma;
        std::optional<CusumDetector> cusum;
        std::optional<RateCollapseDetector> collapse;
        // Previous-tick state for delta sources.
        bool hasPrev = false;
        double prevCounter = 0;
        obs::LatencyHistogram prevHist;
        // Open-alarm index per detector (-1 = none), for clear stamping.
        int openEwma = -1;
        int openCusum = -1;
        int openCollapse = -1;
    };
    struct RailState {
        SloGuardrail rail;
        int open = -1;
    };

    void tick();
    std::optional<double> sample(ProbeState& ps);
    void feed(ProbeState& ps, double x);
    void record(const std::string& detector, const std::string& metric, Fire fire,
                double value, int* openIdx);
    void stamp(int* openIdx, bool stillActive);

    sim::Core& exec_;
    Config cfg_;
    std::vector<std::unique_ptr<ProbeState>> probes_;
    std::vector<std::unique_ptr<RailState>> rails_;
    std::vector<Alarm> alarms_;
    sim::TimePoint lastTick_ = 0;
    uint64_t ticks_ = 0;

    obs::Counter& mTicks_;
    obs::Counter& mAlarms_;
    obs::Counter& mSkipped_;

    sim::Timer timer_;
};

}  // namespace pravega::detect
