#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace pravega::obs {

RateMeter::RateMeter(NowFn now, sim::Duration window, size_t buckets)
    : now_(std::move(now)),
      window_(window),
      bucketWidth_(window / static_cast<sim::Duration>(buckets)),
      createdAt_(now_()),
      ring_(buckets, 0),
      currentBucket_(createdAt_ / std::max<sim::Duration>(bucketWidth_, 1)) {
    if (bucketWidth_ <= 0) bucketWidth_ = 1;
}

void RateMeter::advanceTo(sim::TimePoint now) const {
    int64_t target = now / bucketWidth_;
    if (target <= currentBucket_) return;
    int64_t steps = target - currentBucket_;
    auto n = static_cast<int64_t>(ring_.size());
    if (steps >= n) {
        std::fill(ring_.begin(), ring_.end(), 0);
    } else {
        for (int64_t b = currentBucket_ + 1; b <= target; ++b) {
            ring_[static_cast<size_t>(b % n)] = 0;
        }
    }
    currentBucket_ = target;
}

void RateMeter::mark(uint64_t n) {
    sim::TimePoint now = now_();
    advanceTo(now);
    ring_[static_cast<size_t>(currentBucket_ % static_cast<int64_t>(ring_.size()))] += n;
    total_ += n;
}

double RateMeter::perSecond() const {
    sim::TimePoint now = now_();
    advanceTo(now);
    uint64_t inWindow = 0;
    for (uint64_t v : ring_) inWindow += v;
    if (inWindow == 0) return 0;  // empty window: exactly zero, never 0/0
    // Cold start: marks recorded moments after creation must not divide by
    // a near-zero span and report an astronomically inflated rate (the
    // failure detectors sample meters and would alarm on the garbage).
    // The span floors at one bucket width — the meter's resolution.
    sim::Duration span = std::clamp<sim::Duration>(now - createdAt_, bucketWidth_, window_);
    return static_cast<double>(inWindow) / sim::toSeconds(span);
}

void RateMeter::mergeFrom(const RateMeter& other) {
    sim::TimePoint now = now_();
    advanceTo(now);
    other.advanceTo(now);
    total_ += other.total_;
    // Earlier creation carries over so perSecond() divides by the true span
    // of observed activity, not the (later) merge-registry creation time.
    createdAt_ = std::min(createdAt_, other.createdAt_);
    auto n = static_cast<int64_t>(ring_.size());
    if (bucketWidth_ == other.bucketWidth_ &&
        n == static_cast<int64_t>(other.ring_.size())) {
        // Identical geometry and both advanced to `now`: absolute bucket
        // indices line up, so the rings add element-wise.
        for (size_t i = 0; i < ring_.size(); ++i) ring_[i] += other.ring_[i];
    } else {
        uint64_t inWindow = 0;
        for (uint64_t v : other.ring_) inWindow += v;
        ring_[static_cast<size_t>(currentBucket_ % n)] += inWindow;
    }
}

MetricsRegistry::MetricsRegistry(RateMeter::NowFn now) : now_(std::move(now)) {}

Counter& MetricsRegistry::counter(const std::string& name) {
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

RateMeter& MetricsRegistry::meter(const std::string& name, sim::Duration window) {
    auto& slot = meters_[name];
    if (!slot) slot = std::make_unique<RateMeter>(now_, window);
    return *slot;
}

const Counter* MetricsRegistry::findCounter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::findGauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const LatencyHistogram* MetricsRegistry::findHistogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

const RateMeter* MetricsRegistry::findMeter(const std::string& name) const {
    auto it = meters_.find(name);
    return it == meters_.end() ? nullptr : it->second.get();
}

uint64_t MetricsRegistry::counterValue(const std::string& name) const {
    const Counter* c = findCounter(name);
    return c ? c->value() : 0;
}

void MetricsRegistry::mergeFrom(const MetricsRegistry& src) {
    for (const auto& [name, c] : src.counters_) counter(name).inc(c->value());
    for (const auto& [name, g] : src.gauges_) gauge(name).add(g->value());
    for (const auto& [name, h] : src.histograms_) histogram(name).mergeFrom(*h);
    for (const auto& [name, m] : src.meters_) meter(name, m->window()).mergeFrom(*m);
}

std::string MetricsRegistry::dump() const {
    std::string out;
    char buf[256];
    for (const auto& [name, c] : counters_) {
        std::snprintf(buf, sizeof(buf), "counter %s %llu\n", name.c_str(),
                      static_cast<unsigned long long>(c->value()));
        out += buf;
    }
    for (const auto& [name, g] : gauges_) {
        out += "gauge ";
        out += name;
        out += " ";
        out += fmtDouble(g->value());
        out += "\n";
    }
    for (const auto& [name, h] : histograms_) {
        std::snprintf(buf, sizeof(buf), "histogram %s count=%llu", name.c_str(),
                      static_cast<unsigned long long>(h->count()));
        out += buf;
        out += " mean_ns=";
        out += fmtDouble(h->meanNs());
        out += " p50_ns=";
        out += fmtDouble(h->percentileNs(50));
        out += " p95_ns=";
        out += fmtDouble(h->percentileNs(95));
        out += " p99_ns=";
        out += fmtDouble(h->percentileNs(99));
        out += " max_ns=";
        out += fmtDouble(h->maxNs());
        out += "\n";
    }
    for (const auto& [name, m] : meters_) {
        std::snprintf(buf, sizeof(buf), "meter %s total=%llu", name.c_str(),
                      static_cast<unsigned long long>(m->total()));
        out += buf;
        out += " per_sec=";
        out += fmtDouble(m->perSecond());
        out += "\n";
    }
    return out;
}

void MetricsRegistry::visitCounters(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
}

void MetricsRegistry::visitHistograms(
    const std::function<void(const std::string&, const LatencyHistogram&)>& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
}

}  // namespace pravega::obs
