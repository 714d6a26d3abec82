#include "detect/slo.h"

#include <cctype>
#include <cstdlib>

namespace pravega::detect {

namespace {

void skipSpaces(const std::string& s, size_t& i) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

std::string trim(const std::string& s) {
    size_t a = 0, b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
    return s.substr(a, b - a);
}

bool parseNumber(const std::string& s, size_t& i, double* out) {
    const char* begin = s.c_str() + i;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) return false;
    i += static_cast<size_t>(end - begin);
    *out = v;
    return true;
}

/// Reads a time unit at `i`; returns the multiplier to milliseconds, or 0
/// when no unit is present.
double readMsUnit(const std::string& s, size_t& i) {
    if (s.compare(i, 2, "ns") == 0) { i += 2; return 1e-6; }
    if (s.compare(i, 2, "us") == 0) { i += 2; return 1e-3; }
    if (s.compare(i, 2, "ms") == 0) { i += 2; return 1.0; }
    if (i < s.size() && s[i] == 's') { i += 1; return 1e3; }
    return 0;
}

bool isLatencyAgg(SloRule::Agg agg) {
    return agg != SloRule::Agg::Rate && agg != SloRule::Agg::Value;
}

}  // namespace

Result<SloRule> SloRule::parse(const std::string& text) {
    SloRule rule;
    rule.text = trim(text);
    const std::string& s = rule.text;

    size_t open = s.find('(');
    if (open == std::string::npos) {
        return Status(Err::InvalidArgument, "slo: expected '<agg>(<metric>)' in: " + s);
    }
    std::string agg = trim(s.substr(0, open));
    if (agg == "p50") rule.agg = Agg::P50;
    else if (agg == "p95") rule.agg = Agg::P95;
    else if (agg == "p99") rule.agg = Agg::P99;
    else if (agg == "mean") rule.agg = Agg::Mean;
    else if (agg == "max") rule.agg = Agg::Max;
    else if (agg == "rate") rule.agg = Agg::Rate;
    else if (agg == "value") rule.agg = Agg::Value;
    else return Status(Err::InvalidArgument, "slo: unknown aggregate '" + agg + "'");

    size_t close = s.find(')', open);
    if (close == std::string::npos) {
        return Status(Err::InvalidArgument, "slo: missing ')' in: " + s);
    }
    rule.metric = trim(s.substr(open + 1, close - open - 1));
    if (rule.metric.empty()) {
        return Status(Err::InvalidArgument, "slo: empty metric in: " + s);
    }

    size_t i = close + 1;
    skipSpaces(s, i);
    if (s.compare(i, 2, "<=") == 0) { rule.cmp = Cmp::LE; i += 2; }
    else if (s.compare(i, 2, ">=") == 0) { rule.cmp = Cmp::GE; i += 2; }
    else if (i < s.size() && s[i] == '<') { rule.cmp = Cmp::LT; i += 1; }
    else if (i < s.size() && s[i] == '>') { rule.cmp = Cmp::GT; i += 1; }
    else return Status(Err::InvalidArgument, "slo: expected comparator in: " + s);

    skipSpaces(s, i);
    if (!parseNumber(s, i, &rule.bound)) {
        return Status(Err::InvalidArgument, "slo: expected bound number in: " + s);
    }
    if (isLatencyAgg(rule.agg)) {
        double toMs = readMsUnit(s, i);
        if (toMs > 0) rule.bound *= toMs;  // unitless bound: already ms
    } else if (s.compare(i, 2, "/s") == 0) {
        i += 2;  // rate annotation, no scaling
    }

    skipSpaces(s, i);
    if (s.compare(i, 3, "for") == 0) {
        i += 3;
        skipSpaces(s, i);
        double w = 0;
        if (!parseNumber(s, i, &w)) {
            return Status(Err::InvalidArgument, "slo: expected window after 'for' in: " + s);
        }
        double toMs = readMsUnit(s, i);
        if (toMs <= 0) {
            return Status(Err::InvalidArgument,
                          "slo: window needs a time unit (ns/us/ms/s) in: " + s);
        }
        rule.window = static_cast<sim::Duration>(w * toMs * sim::kMillisecond);
    }
    skipSpaces(s, i);
    if (i != s.size()) {
        return Status(Err::InvalidArgument,
                      "slo: trailing input '" + s.substr(i) + "' in: " + s);
    }
    return rule;
}

SloGuardrail::SloGuardrail(SloRule rule, sim::Duration minWindow)
    : rule_(std::move(rule)), window_(std::max(rule_.window, minWindow)) {
    verdict_.rule = rule_.text;
}

bool SloGuardrail::holds(double value) const {
    switch (rule_.cmp) {
        case SloRule::Cmp::LT: return value < rule_.bound;
        case SloRule::Cmp::LE: return value <= rule_.bound;
        case SloRule::Cmp::GT: return value > rule_.bound;
        case SloRule::Cmp::GE: return value >= rule_.bound;
    }
    return true;
}

bool SloGuardrail::aggregate(const obs::MetricsRegistry& reg, sim::TimePoint now,
                             double* out) {
    const sim::TimePoint horizon = now - window_;
    if (rule_.agg == SloRule::Agg::Value) {
        const obs::Gauge* g = reg.findGauge(rule_.metric);
        if (g == nullptr || !std::isfinite(g->value())) return false;
        *out = g->value();
        return true;
    }
    if (rule_.agg == SloRule::Agg::Rate) {
        // Missing counter means zero events so far — still a valid rate.
        counterSnaps_.emplace_back(now, static_cast<double>(reg.counterValue(rule_.metric)));
        while (counterSnaps_.size() >= 2 && counterSnaps_[1].first <= horizon) {
            counterSnaps_.pop_front();
        }
        const auto& [t0, v0] = counterSnaps_.front();
        if (t0 > horizon || now <= t0) return false;  // window not filled yet
        *out = (counterSnaps_.back().second - v0) / sim::toSeconds(now - t0);
        return true;
    }
    const obs::LatencyHistogram* h = reg.findHistogram(rule_.metric);
    if (h == nullptr) return false;
    histSnaps_.emplace_back(now, *h);
    while (histSnaps_.size() >= 2 && histSnaps_[1].first <= horizon) {
        histSnaps_.pop_front();
    }
    const auto& [t0, snap0] = histSnaps_.front();
    if (t0 > horizon) return false;  // cold start: less than one window of data
    obs::LatencyHistogram delta = h->deltaSince(snap0);
    if (delta.count() == 0) return false;  // empty window: vacuous pass
    switch (rule_.agg) {
        case SloRule::Agg::P50: *out = delta.percentileMs(50); break;
        case SloRule::Agg::P95: *out = delta.percentileMs(95); break;
        case SloRule::Agg::P99: *out = delta.percentileMs(99); break;
        case SloRule::Agg::Mean: *out = delta.meanMs(); break;
        case SloRule::Agg::Max: *out = delta.maxMs(); break;
        default: return false;
    }
    return true;
}

std::optional<Fire> SloGuardrail::evaluate(const obs::MetricsRegistry& reg,
                                           sim::TimePoint now) {
    double value = 0;
    if (!aggregate(reg, now, &value)) return std::nullopt;
    lastValue_ = value;

    bool upperBound = rule_.cmp == SloRule::Cmp::LT || rule_.cmp == SloRule::Cmp::LE;
    if (verdict_.evaluations == 0) {
        verdict_.worst = value;
    } else {
        verdict_.worst = upperBound ? std::max(verdict_.worst, value)
                                    : std::min(verdict_.worst, value);
    }
    ++verdict_.evaluations;

    if (holds(value)) {
        breached_ = false;
        return std::nullopt;
    }
    ++verdict_.violations;
    verdict_.passed = false;
    if (verdict_.firstViolation < 0) verdict_.firstViolation = now;
    if (breached_) return std::nullopt;  // same episode, one alarm already out
    breached_ = true;
    ++verdict_.episodes;
    double excess = upperBound ? value - rule_.bound : rule_.bound - value;
    return Fire{AlarmKind::Slo, excess};
}

}  // namespace pravega::detect
