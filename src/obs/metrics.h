// Virtual-time observability: named counters, gauges, log-bucketed latency
// histograms, and windowed rate meters, collected in a per-world
// MetricsRegistry.
//
// Determinism contract: every instrument is driven exclusively by virtual
// time (`sim::Core::now()`) and by the deterministic event order of the
// simulation — no wall clock, no global state, no iteration over unordered
// containers. `dump()` renders instruments sorted by name with fixed
// formatting, so two same-seed runs of the same binary produce byte-identical
// dumps. That makes metrics assertable in tests and turns the chaos suite
// into a white-box tool.
//
// One registry per Core (see sim::Core::metrics()): a "world" in
// this codebase is one executor, so per-world isolation falls out naturally
// and bench sweep points never bleed counters into each other.
//
// Hot-path usage: look instruments up ONCE (construction time), keep the
// reference. References remain stable for the registry's lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "sim/time.h"

namespace pravega::obs {

/// Monotonic event count.
class Counter {
public:
    void inc(uint64_t n = 1) { value_ += n; }
    uint64_t value() const { return value_; }

private:
    uint64_t value_ = 0;
};

/// Last-written value (queue depths, utilization ratios).
class Gauge {
public:
    void set(double v) { value_ = v; }
    void add(double d) { value_ += d; }
    double value() const { return value_; }

private:
    double value_ = 0;
};

/// Windowed rate over virtual time: a ring of fixed-width buckets covering
/// the trailing window. `mark()` and `perSecond()` both advance the ring to
/// the current virtual time, so a quiet meter decays to zero.
class RateMeter {
public:
    using NowFn = std::function<sim::TimePoint()>;

    explicit RateMeter(NowFn now, sim::Duration window = sim::kSecond, size_t buckets = 10);

    void mark(uint64_t n = 1);
    /// Rate over clamp(time since creation, bucketWidth, window): an empty
    /// window reads exactly 0, and a cold start (marks moments after
    /// creation) divides by at least one bucket width instead of a
    /// near-zero span — no NaN or inflated garbage rates.
    double perSecond() const;
    uint64_t total() const { return total_; }
    sim::Duration window() const { return window_; }

    /// Accumulates `other` into this meter. Both rings are advanced to the
    /// current virtual time first; with identical geometry (same window,
    /// same bucket count — the per-core partition case) the merge is
    /// bucket-exact, otherwise the in-window counts fold into the current
    /// bucket as a conservative approximation.
    void mergeFrom(const RateMeter& other);

private:
    void advanceTo(sim::TimePoint now) const;

    NowFn now_;
    sim::Duration window_;
    sim::Duration bucketWidth_;
    sim::TimePoint createdAt_;
    mutable std::vector<uint64_t> ring_;
    mutable int64_t currentBucket_;  // absolute bucket index of ring head
    uint64_t total_ = 0;
};

class MetricsRegistry {
public:
    /// `now` supplies virtual time for the rate meters (normally the owning
    /// executor's clock).
    explicit MetricsRegistry(RateMeter::NowFn now);

    // Find-or-create. Returned references are stable for the registry's
    // lifetime; cache them on hot paths.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    LatencyHistogram& histogram(const std::string& name);
    RateMeter& meter(const std::string& name, sim::Duration window = sim::kSecond);

    // Read-only lookup; nullptr when the instrument was never created.
    const Counter* findCounter(const std::string& name) const;
    const Gauge* findGauge(const std::string& name) const;
    const LatencyHistogram* findHistogram(const std::string& name) const;
    const RateMeter* findMeter(const std::string& name) const;

    /// Convenience for assertions: value of a counter, or 0 if absent.
    uint64_t counterValue(const std::string& name) const;

    /// Folds every instrument of `src` into this registry, find-or-create
    /// per name: counters and gauges sum, histograms merge bucket-wise,
    /// meters merge ring-wise. Same-name instruments from different source
    /// registries land in ONE instrument here — this is how per-core
    /// registry partitions aggregate into the machine-wide snapshot without
    /// double-registration.
    void mergeFrom(const MetricsRegistry& src);

    /// Deterministic text dump: one line per instrument, sorted by name,
    /// fixed formatting. Byte-identical across same-seed runs.
    std::string dump() const;

    void visitCounters(const std::function<void(const std::string&, const Counter&)>& fn) const;
    void visitHistograms(
        const std::function<void(const std::string&, const LatencyHistogram&)>& fn) const;

private:
    RateMeter::NowFn now_;
    // std::map: sorted iteration (deterministic dumps) + stable references.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
    std::map<std::string, std::unique_ptr<RateMeter>> meters_;
};

/// Records virtual-time elapsed between construction and `finish()` into a
/// stage histogram. The trace-span facility: each pipeline stage owns a
/// histogram named `trace.<flow>.<k>_<stage>` — the numeric prefix makes the
/// sorted dump read in pipeline order — and spans attribute one event's (or
/// batch's) latency to its stage.
class StageSpan {
public:
    StageSpan(sim::TimePoint start, LatencyHistogram& hist) : start_(start), hist_(&hist) {}

    /// Record `now - start` into the stage histogram (idempotent).
    void finish(sim::TimePoint now) {
        if (hist_ == nullptr) return;
        hist_->record(now - start_);
        hist_ = nullptr;
    }
    sim::TimePoint start() const { return start_; }

private:
    sim::TimePoint start_;
    LatencyHistogram* hist_;
};

}  // namespace pravega::obs
