// SLO guardrails: declarative predicates over obs:: instruments, evaluated
// on the Monitor's sampling cadence over a trailing virtual-time window.
//
// Grammar (parsed by SloRule::parse):
//
//   <agg>(<metric>) <cmp> <bound>[unit] [for <window>]
//
//   agg    := p50 | p95 | p99 | mean | max   (histogram, windowed, ms)
//           | rate                           (counter delta / window, per-sec)
//           | value                          (gauge, instantaneous)
//   cmp    := < | <= | > | >=
//   unit   := ns | us | ms | s   (latency bounds; converted to ms)
//           | /s                 (rate bounds; annotation only)
//   window := <number><ns|us|ms|s>  (trailing window W; floors at one
//                                    sampling period when smaller)
//
// Examples:
//   p99(trace.write.2_wal_commit_ns) < 50ms for 200ms
//   rate(wal.log.appends) >= 1000/s for 300ms
//   value(store.op_queue.depth) < 10000 for 0ms
//
// Histogram aggregates are computed over the samples recorded inside the
// trailing window (via LatencyHistogram::deltaSince on ring-buffered
// snapshots), so a guardrail sees current behavior, not the run's
// cumulative history. Cold starts and empty windows are vacuous passes: a
// rule never fires before one full window of data exists, and a window
// with no recorded samples is skipped rather than treated as zero.
//
// A guardrail is both a soft alert (each breach episode emits an Alarm of
// kind Slo through the Monitor) and a hard assertion (the end-of-run
// SloVerdict says whether the rule ever fired; tests EXPECT on it).
#pragma once

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "detect/detectors.h"
#include "obs/metrics.h"

namespace pravega::detect {

struct SloRule {
    enum class Agg { P50, P95, P99, Mean, Max, Rate, Value };
    enum class Cmp { LT, LE, GT, GE };

    std::string text;    // the original rule string (alarm/verdict label)
    std::string metric;  // instrument name
    Agg agg = Agg::P99;
    Cmp cmp = Cmp::LT;
    double bound = 0;              // ms for latency aggs, /s for Rate, raw for Value
    sim::Duration window = 0;      // trailing window ("for W")

    static Result<SloRule> parse(const std::string& text);
};

/// End-of-run verdict for one rule. `worst` is the most-violating value
/// observed (max for upper-bound rules, min for lower-bound rules); it is
/// only meaningful when `evaluations > 0`.
struct SloVerdict {
    std::string rule;
    bool passed = true;
    uint64_t evaluations = 0;
    uint64_t violations = 0;      // ticks in violation
    uint64_t episodes = 0;        // distinct breach episodes (== Slo alarms)
    sim::TimePoint firstViolation = -1;
    double worst = 0;
};

/// One rule's windowed evaluation state. The Monitor ticks it; it can also
/// be driven directly in tests.
class SloGuardrail {
public:
    SloGuardrail(SloRule rule, sim::Duration minWindow);

    /// Evaluates the rule against `reg` at virtual time `now`. Returns a
    /// Fire when a NEW breach episode starts (the Monitor turns it into an
    /// Alarm); episode end is visible via `breached()` going false.
    std::optional<Fire> evaluate(const obs::MetricsRegistry& reg, sim::TimePoint now);

    bool breached() const { return breached_; }
    const SloRule& rule() const { return rule_; }
    SloVerdict verdict() const { return verdict_; }
    /// The aggregate computed by the most recent successful evaluation.
    double lastValue() const { return lastValue_; }

private:
    bool aggregate(const obs::MetricsRegistry& reg, sim::TimePoint now, double* out);
    bool holds(double value) const;

    SloRule rule_;
    sim::Duration window_;  // rule window floored at the sampling period
    // Snapshot rings for windowed aggregates; front is oldest. One entry
    // per tick, trimmed to the window (plus one pre-window anchor).
    std::deque<std::pair<sim::TimePoint, obs::LatencyHistogram>> histSnaps_;
    std::deque<std::pair<sim::TimePoint, double>> counterSnaps_;
    bool breached_ = false;
    double lastValue_ = 0;
    SloVerdict verdict_;
};

}  // namespace pravega::detect
