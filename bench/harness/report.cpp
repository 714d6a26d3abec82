#include "bench/harness/report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.h"

namespace pravega::bench {

namespace {

/// Deterministic JSON number: integers render exactly, everything else with
/// enough digits to round-trip the table values.
std::string jsonNumber(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    return buf;
}

void appendKvObject(std::string& out,
                    const std::vector<std::pair<std::string, double>>& kv) {
    out += "{";
    bool first = true;
    for (const auto& [k, v] : kv) {
        if (!first) out += ",";
        first = false;
        out += "\"";
        out += jsonEscape(k);
        out += "\":";
        out += jsonNumber(v);
    }
    out += "}";
}

}  // namespace

bool smoke() {
    const char* v = std::getenv("BENCH_SMOKE");
    return v != nullptr && v[0] == '1';
}

bool chaosMode() {
    const char* v = std::getenv("BENCH_CHAOS");
    return v != nullptr && v[0] == '1';
}

WorkloadConfig shrinkForSmoke(WorkloadConfig cfg) {
    if (!smoke()) return cfg;
    cfg.warmup = sim::msec(100);
    cfg.window = sim::msec(400);
    cfg.maxEvents = std::min<uint64_t>(cfg.maxEvents, 25'000);
    cfg.eventsPerSec = std::min(cfg.eventsPerSec, 25'000.0);
    return cfg;
}

Report::Report(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title)) {
    std::printf("# %s\n", title_.c_str());
}

Report::~Report() { finish(); }

void Report::section(const std::string& title, const std::string& note) {
    currentSection_ = title;
    headerPrinted_ = false;
    std::printf("\n# %s\n", title.c_str());
    if (!note.empty()) std::printf("# %s\n", note.c_str());
    std::fflush(stdout);
}

void Report::printStandardHeader() {
    if (headerPrinted_) return;
    headerPrinted_ = true;
    std::printf("%-34s %12s %12s %9s %9s %9s %9s\n", "series", "offered(e/s)",
                "achieved(e/s)", "MB/s", "p50(ms)", "p95(ms)", "p99(ms)");
}

void Report::captureMetrics(const obs::MetricsRegistry* reg, Row& row) {
    if (reg == nullptr) return;
    reg->visitCounters([&row](const std::string& name, const obs::Counter& c) {
        row.metrics.emplace_back(name, static_cast<double>(c.value()));
    });
    // Trace-stage summaries (where one event's latency was spent) plus the
    // tape-library access distributions — the archive tier's first-byte
    // latency is the whole point of its ablation row.
    reg->visitHistograms([&row](const std::string& name, const obs::LatencyHistogram& h) {
        bool traced = name.rfind("trace.", 0) == 0 || name.rfind("sim.tape.", 0) == 0;
        if (!traced || h.count() == 0) return;
        row.metrics.emplace_back(name + ".count", static_cast<double>(h.count()));
        row.metrics.emplace_back(name + ".p50_ns", h.percentileNs(50));
        row.metrics.emplace_back(name + ".p99_ns", h.percentileNs(99));
    });
}

void Report::add(const std::string& series, const RunStats& s,
                 const obs::MetricsRegistry* metrics) {
    printStandardHeader();
    std::printf("%-34s %12.0f %12.0f %9.2f %9.2f %9.2f %9.2f\n", series.c_str(),
                s.offeredEventsPerSec, s.achievedEventsPerSec, s.achievedMBps, s.p50Ms,
                s.p95Ms, s.p99Ms);
    std::fflush(stdout);

    Row row;
    row.section = currentSection_;
    row.series = series;
    row.values = {{"offered_events_per_sec", s.offeredEventsPerSec},
                  {"achieved_events_per_sec", s.achievedEventsPerSec},
                  {"achieved_mbps", s.achievedMBps},
                  {"p50_ms", s.p50Ms},
                  {"p95_ms", s.p95Ms},
                  {"p99_ms", s.p99Ms},
                  {"mean_ms", s.meanMs},
                  {"sent", static_cast<double>(s.sent)},
                  {"acked_samples", static_cast<double>(s.ackedSamples)},
                  {"errors", static_cast<double>(s.errors)},
                  {"window_sec", s.windowSec}};
    captureMetrics(metrics, row);
    rows_.push_back(std::move(row));
}

void Report::addE2e(const std::string& series, const RunStats& s,
                    double consumedEventsPerSec, uint32_t eventBytes,
                    const obs::LatencyHistogram& e2e, const obs::MetricsRegistry* metrics) {
    printStandardHeader();
    double mbps = consumedEventsPerSec * eventBytes / (1024.0 * 1024.0);
    std::printf("%-34s %12.0f %12.0f %9.2f %9.2f %9.2f %9.2f  (consumer side)\n",
                series.c_str(), s.offeredEventsPerSec, consumedEventsPerSec, mbps,
                e2e.percentileMs(50), e2e.percentileMs(95), e2e.percentileMs(99));
    std::fflush(stdout);

    Row row;
    row.section = currentSection_;
    row.series = series;
    row.note = "consumer side";
    row.values = {{"offered_events_per_sec", s.offeredEventsPerSec},
                  {"achieved_events_per_sec", consumedEventsPerSec},
                  {"achieved_mbps", mbps},
                  {"p50_ms", e2e.percentileMs(50)},
                  {"p95_ms", e2e.percentileMs(95)},
                  {"p99_ms", e2e.percentileMs(99)},
                  {"mean_ms", e2e.meanMs()},
                  {"sent", static_cast<double>(s.sent)},
                  {"acked_samples", static_cast<double>(e2e.count())},
                  {"errors", static_cast<double>(s.errors)},
                  {"window_sec", s.windowSec}};
    captureMetrics(metrics, row);
    rows_.push_back(std::move(row));
}

void Report::addCustom(const std::string& series,
                       const std::vector<std::pair<std::string, double>>& values,
                       const obs::MetricsRegistry* metrics, const std::string& note) {
    std::printf("%-34s", series.c_str());
    for (const auto& [k, v] : values) {
        std::printf(" %s=%s", k.c_str(), jsonNumber(v).c_str());
    }
    if (!note.empty()) std::printf("  %s", note.c_str());
    std::printf("\n");
    std::fflush(stdout);

    Row row;
    row.section = currentSection_;
    row.series = series;
    row.note = note;
    row.values = values;
    captureMetrics(metrics, row);
    rows_.push_back(std::move(row));
}

void Report::note(const std::string& text) {
    std::printf("# %s\n", text.c_str());
    std::fflush(stdout);
    notes_.push_back(text);
}

void Report::addDetectionRun(const std::string& runJson) {
    detectionRuns_.push_back(runJson);
}

std::string Report::finish() {
    std::string dir;
    if (const char* env = std::getenv("BENCH_OUT_DIR"); env != nullptr && env[0] != '\0') {
        dir = env;
        if (dir.back() != '/') dir += '/';
    }
    std::string path = dir + "BENCH_" + name_ + ".json";
    if (finished_) return path;
    finished_ = true;

    std::string out;
    out.reserve(4096 + rows_.size() * 512);
    out += "{\"schema\":\"pravega-bench/v1\",\"name\":\"";
    out += jsonEscape(name_);
    out += "\",\"title\":\"";
    out += jsonEscape(title_);
    out += "\",\"smoke\":";
    out += smoke() ? "true" : "false";
    out += ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
        const Row& r = rows_[i];
        if (i > 0) out += ",";
        out += "{\"section\":\"";
        out += jsonEscape(r.section);
        out += "\",\"series\":\"";
        out += jsonEscape(r.series);
        out += "\"";
        if (!r.note.empty()) {
            out += ",\"note\":\"";
            out += jsonEscape(r.note);
            out += "\"";
        }
        out += ",\"values\":";
        appendKvObject(out, r.values);
        out += ",\"metrics\":";
        appendKvObject(out, r.metrics);
        out += "}";
    }
    out += "],\"notes\":[";
    for (size_t i = 0; i < notes_.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"";
        out += jsonEscape(notes_[i]);
        out += "\"";
    }
    out += "]";
    if (!detectionRuns_.empty()) {
        out += ",\"detection\":{\"runs\":[";
        for (size_t i = 0; i < detectionRuns_.size(); ++i) {
            if (i > 0) out += ",";
            out += detectionRuns_[i];
        }
        out += "]}";
    }
    out += "}\n";

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "report: cannot write %s\n", path.c_str());
        return path;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
    std::fflush(stdout);
    return path;
}

}  // namespace pravega::bench
