#include "detect/monitor.h"

#include <cstdio>
#include <cstdlib>

#include "common/json.h"

namespace pravega::detect {

Monitor::Monitor(sim::Core& exec, Config cfg)
    : exec_(exec),
      cfg_(cfg),
      mTicks_(exec.metrics().counter("detect.ticks")),
      mAlarms_(exec.metrics().counter("detect.alarms")),
      mSkipped_(exec.metrics().counter("detect.samples.skipped")),
      timer_(exec, [this]() { tick(); }) {}

void Monitor::addProbe(ProbeConfig probe) {
    auto ps = std::make_unique<ProbeState>();
    ps->cfg = std::move(probe);
    if (ps->cfg.ewma) ps->ewma.emplace(*ps->cfg.ewma);
    if (ps->cfg.cusum) ps->cusum.emplace(*ps->cfg.cusum);
    if (ps->cfg.rateCollapse) ps->collapse.emplace(*ps->cfg.rateCollapse);
    probes_.push_back(std::move(ps));
}

void Monitor::addGuardrail(const std::string& ruleText) {
    Result<SloRule> rule = SloRule::parse(ruleText);
    if (!rule.isOk()) {
        std::fprintf(stderr, "detect: bad guardrail: %s\n",
                     rule.status().toString().c_str());
        std::abort();
    }
    addGuardrail(std::move(rule).value());
}

void Monitor::addGuardrail(SloRule rule) {
    rails_.push_back(std::make_unique<RailState>(
        RailState{SloGuardrail(std::move(rule), cfg_.period), -1}));
}

void Monitor::addDefaultWritePathProbes() {
    const int warmup = cfg_.warmupSamples;

    // WAL commit-latency spike: per-tick windowed p99 of the commit stage.
    // EWMA catches step changes (partition stall release, crashed-bookie
    // timeout), CUSUM the slow drifts (link degradation). Upward only: a
    // latency drop is not a failure.
    {
        ProbeConfig p;
        p.metric = "trace.write.2_wal_commit_ns";
        p.source = ProbeConfig::Source::HistP99Ms;
        EwmaDetector::Config e;
        e.k = 6, e.rearmK = 3, e.minSamples = warmup, e.twoSided = false;
        e.relMinSigma = 0.25, e.minSigma = 0.05;  // ms
        p.ewma = e;
        CusumDetector::Config c;
        c.h = 12, c.k = 0.5, c.minSamples = warmup, c.twoSided = false;
        c.relMinSigma = 0.25, c.minSigma = 0.05;
        p.cusum = c;
        addProbe(std::move(p));
    }
    // Zero-baseline burst metrics: in a healthy run these rates are exactly
    // 0, so the absolute sigma floor IS the sensitivity — one event per
    // 10ms tick reads 100/s and clears k*minSigma = 90/s.
    for (const char* metric : {"wal.bookie.reject.unavailable", "net.drop.partition",
                               "store.writer.flush_failures"}) {
        ProbeConfig p;
        p.metric = metric;
        p.source = ProbeConfig::Source::CounterRate;
        EwmaDetector::Config e;
        e.k = 6, e.rearmK = 3, e.minSamples = warmup, e.twoSided = false;
        e.relMinSigma = 0, e.minSigma = 15.0;  // per-sec
        p.ewma = e;
        addProbe(std::move(p));
    }
    // Append-rate collapse: the WAL going flat while traffic is offered.
    {
        ProbeConfig p;
        p.metric = "wal.log.appends";
        p.source = ProbeConfig::Source::CounterRate;
        RateCollapseDetector::Config r;
        r.minBaseline = 200.0, r.collapseFraction = 0.1, r.consecutive = 8;
        r.minSamples = warmup;
        p.rateCollapse = r;
        addProbe(std::move(p));
    }
    // LTS backlog growth (slowdowns queue work behind the object store).
    {
        ProbeConfig p;
        p.metric = "sim.lts.backlog_sec";
        p.source = ProbeConfig::Source::Gauge;
        EwmaDetector::Config e;
        e.k = 6, e.rearmK = 3, e.minSamples = warmup, e.twoSided = false;
        e.relMinSigma = 1.0, e.minSigma = 0.02;  // seconds of backlog
        p.ewma = e;
        addProbe(std::move(p));
    }
    // LTS slowdown: windowed p99 of flush duration. The fault decorator's
    // extra per-op latency lands here (it wraps the storage the writer
    // calls), while sim.lts.op_ns — inside the model — would miss it.
    // Flushes run on the tiering cadence (tens of ms apart), so most ticks
    // see an empty window: samples are SPARSE and this probe cannot reuse
    // the tick-based warmup — it would never arm. Healthy flush latency is
    // dominated by the object store's fixed op latency (near-deterministic),
    // so a short warmup with a fast-adapting, winsorized baseline is safe:
    // the clamp keeps one fault spike from inflating sigma and masking the
    // next window.
    {
        ProbeConfig p;
        p.metric = "store.writer.flush_ns";
        p.source = ProbeConfig::Source::HistP99Ms;
        EwmaDetector::Config e;
        e.alpha = 0.25, e.k = 3.5, e.rearmK = 2, e.minSamples = 6;
        e.twoSided = false, e.winsorK = 3;
        e.relMinSigma = 0.05, e.minSigma = 0.5;  // ms
        p.ewma = e;
        CusumDetector::Config c;
        c.alpha = 0.25, c.h = 8, c.k = 0.5, c.minSamples = 6;
        c.twoSided = false, c.winsorK = 3;
        c.relMinSigma = 0.05, c.minSigma = 0.5;
        p.cusum = c;
        addProbe(std::move(p));
    }
}

void Monitor::start() {
    if (timer_.armed()) return;
    lastTick_ = exec_.now();
    timer_.every(cfg_.period);
}

void Monitor::stop() {
    if (!timer_.armed()) return;
    timer_.cancel();
    // Close the books: still-active excursions get the stop time as their
    // clear time so the alarm log has no dangling intervals.
    sim::TimePoint now = exec_.now();
    for (Alarm& a : alarms_) {
        if (a.clearedAt < 0) a.clearedAt = now;
    }
    for (auto& ps : probes_) ps->openEwma = ps->openCusum = ps->openCollapse = -1;
    for (auto& rs : rails_) rs->open = -1;
}

void Monitor::tick() {
    sim::TimePoint now = exec_.now();
    for (auto& ps : probes_) {
        std::optional<double> x = sample(*ps);
        if (!x) {
            mSkipped_.inc();
            continue;
        }
        feed(*ps, *x);
    }
    for (auto& rs : rails_) {
        std::optional<Fire> fired = rs->rail.evaluate(exec_.machine().mergedMetrics(), now);
        if (fired) {
            record("slo", rs->rail.rule().text, *fired, rs->rail.lastValue(), &rs->open);
        } else {
            stamp(&rs->open, rs->rail.breached());
        }
    }
    ++ticks_;
    mTicks_.inc();
    lastTick_ = now;
}

std::optional<double> Monitor::sample(ProbeState& ps) {
    const obs::MetricsRegistry& reg = exec_.machine().mergedMetrics();
    double dtSec = sim::toSeconds(exec_.now() - lastTick_);
    switch (ps.cfg.source) {
        case ProbeConfig::Source::CounterRate: {
            double cur = static_cast<double>(reg.counterValue(ps.cfg.metric));
            if (!ps.hasPrev) {
                ps.hasPrev = true;
                ps.prevCounter = cur;
                return std::nullopt;  // cold start: no rate yet
            }
            double delta = cur - ps.prevCounter;
            ps.prevCounter = cur;
            if (dtSec <= 0) return std::nullopt;
            return delta / dtSec;
        }
        case ProbeConfig::Source::Gauge: {
            const obs::Gauge* g = reg.findGauge(ps.cfg.metric);
            if (g == nullptr || !std::isfinite(g->value())) return std::nullopt;
            return g->value();
        }
        case ProbeConfig::Source::MeterRate: {
            const obs::RateMeter* m = reg.findMeter(ps.cfg.metric);
            if (m == nullptr) return std::nullopt;
            return m->perSecond();
        }
        case ProbeConfig::Source::HistP50Ms:
        case ProbeConfig::Source::HistP99Ms: {
            const obs::LatencyHistogram* h = reg.findHistogram(ps.cfg.metric);
            if (h == nullptr) return std::nullopt;
            if (!ps.hasPrev) {
                ps.hasPrev = true;
                ps.prevHist = *h;
                return std::nullopt;
            }
            obs::LatencyHistogram delta = h->deltaSince(ps.prevHist);
            ps.prevHist = *h;
            if (delta.count() == 0) return std::nullopt;  // empty window
            return ps.cfg.source == ProbeConfig::Source::HistP50Ms
                       ? delta.percentileMs(50)
                       : delta.percentileMs(99);
        }
    }
    return std::nullopt;
}

void Monitor::feed(ProbeState& ps, double x) {
    if (ps.ewma) {
        std::optional<Fire> fired = ps.ewma->update(x);
        if (fired) record("ewma", ps.cfg.metric, *fired, x, &ps.openEwma);
        else stamp(&ps.openEwma, ps.ewma->active());
    }
    if (ps.cusum) {
        std::optional<Fire> fired = ps.cusum->update(x);
        if (fired) record("cusum", ps.cfg.metric, *fired, x, &ps.openCusum);
        else stamp(&ps.openCusum, ps.cusum->active());
    }
    if (ps.collapse) {
        std::optional<Fire> fired = ps.collapse->update(x);
        if (fired) record("rate-collapse", ps.cfg.metric, *fired, x, &ps.openCollapse);
        else stamp(&ps.openCollapse, ps.collapse->active());
    }
}

void Monitor::record(const std::string& detector, const std::string& metric, Fire fire,
                     double value, int* openIdx) {
    Alarm a;
    a.at = exec_.now();
    a.detector = detector;
    a.metric = metric;
    a.kind = fire.kind;
    a.value = value;
    a.score = fire.score;
    alarms_.push_back(std::move(a));
    *openIdx = static_cast<int>(alarms_.size()) - 1;
    mAlarms_.inc();
}

void Monitor::stamp(int* openIdx, bool stillActive) {
    if (*openIdx < 0 || stillActive) return;
    alarms_[static_cast<size_t>(*openIdx)].clearedAt = exec_.now();
    *openIdx = -1;
}

size_t Monitor::detectorAlarmCount() const {
    size_t n = 0;
    for (const Alarm& a : alarms_) {
        if (a.kind != AlarmKind::Slo) ++n;
    }
    return n;
}

std::vector<SloVerdict> Monitor::guardrailVerdicts() const {
    std::vector<SloVerdict> out;
    out.reserve(rails_.size());
    for (const auto& rs : rails_) out.push_back(rs->rail.verdict());
    return out;
}

bool Monitor::guardrailsPassed() const {
    for (const auto& rs : rails_) {
        if (!rs->rail.verdict().passed) return false;
    }
    return true;
}

std::string Monitor::alarmsJson() const {
    std::string out = "[";
    for (size_t i = 0; i < alarms_.size(); ++i) {
        const Alarm& a = alarms_[i];
        if (i > 0) out += ",";
        out += "{\"t_ms\":";
        out += fmtDouble(sim::toMillis(a.at));
        out += ",\"detector\":\"";
        out += jsonEscape(a.detector);
        out += "\",\"metric\":\"";
        out += jsonEscape(a.metric);
        out += "\",\"kind\":\"";
        out += alarmKindName(a.kind);
        out += "\",\"value\":";
        out += fmtDouble(a.value);
        out += ",\"score\":";
        out += fmtDouble(a.score);
        out += ",\"cleared_ms\":";
        out += a.clearedAt < 0 ? std::string("-1") : fmtDouble(sim::toMillis(a.clearedAt));
        out += "}";
    }
    out += "]";
    return out;
}

std::string Monitor::guardrailsJson() const {
    std::string out = "[";
    bool first = true;
    for (const auto& rs : rails_) {
        SloVerdict v = rs->rail.verdict();
        if (!first) out += ",";
        first = false;
        out += "{\"rule\":\"";
        out += jsonEscape(v.rule);
        out += "\",\"passed\":";
        out += v.passed ? "true" : "false";
        out += ",\"evaluations\":";
        out += std::to_string(v.evaluations);
        out += ",\"violations\":";
        out += std::to_string(v.violations);
        out += ",\"episodes\":";
        out += std::to_string(v.episodes);
        out += ",\"first_violation_ms\":";
        out += v.firstViolation < 0 ? std::string("-1")
                                    : fmtDouble(sim::toMillis(v.firstViolation));
        out += ",\"worst\":";
        out += fmtDouble(v.worst);
        out += "}";
    }
    out += "]";
    return out;
}

}  // namespace pravega::detect
