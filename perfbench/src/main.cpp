// perfbench: runs one benchmark workload and prints one JSON line.
//
//   perfbench --workload ingest|catchup|fleet --seed N [--seconds S]
//             [--trace 0|1] [--trace-out FILE] [--tiny]
//
// The JSON carries the end-to-end metrics ("metrics"), the per-layer
// metrics ("per_layer"; wall-clock spans only with --trace 1), the failed
// operations by kind and free-form notes. perfbench/run.py wraps it into
// the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20) continue;
        out += ch;
    }
    return out + "\"";
}

std::string metricsJson(const std::vector<perfbench::Metric>& metrics) {
    std::string out = "{";
    char num[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto& m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0;
        std::snprintf(num, sizeof(num), "%.17g", v);
        out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + num +
               ", \"unit\": " + quoted(m.unit) + "}";
    }
    return out + "}";
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest|catchup|fleet --seed N [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--tiny]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        const char* v = nullptr;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--workload" && (v = next())) {
            opt.workload = v;
        } else if (a == "--seed" && (v = next())) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && (v = next())) {
            opt.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace" && (v = next())) {
            opt.trace = std::string(v) == "1";
        } else if (a == "--trace-out" && (v = next())) {
            opt.traceOut = v;
        } else {
            return usage();
        }
    }
    if (opt.workload.empty() || !(opt.seconds > 0)) return usage();

    perfbench::RunResult r = perfbench::runWorkload(opt);

    std::string failures = "{";
    for (size_t i = 0; i < r.failures.size(); ++i) {
        failures += (i ? ", " : "") + quoted(r.failures[i].first) + ": " +
                    std::to_string(r.failures[i].second);
    }
    failures += "}";
    std::string notes = "[";
    for (size_t i = 0; i < r.notes.size(); ++i) notes += (i ? ", " : "") + quoted(r.notes[i]);
    notes += "]";
    std::string layers = "{";
    char buf[160];
    for (size_t i = 0; i < r.layers.size(); ++i) {
        const auto& l = r.layers[i];
        std::snprintf(buf, sizeof(buf), "{\"total_s\": %.9g, \"self_s\": %.9g, \"calls\": %.9g}",
                      l.totalS, l.selfS, l.calls);
        layers += (i ? ", " : "") + quoted(l.name) + ": " + buf;
    }
    layers += "}";
    std::printf(
        "{\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, \"failures\": %s, \"notes\": %s, "
        "\"metrics\": %s, \"per_layer\": %s, \"layers\": %s}\n",
        r.ok ? "true" : "false", static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), failures.c_str(), notes.c_str(),
        metricsJson(r.endToEnd).c_str(), metricsJson(r.perLayer).c_str(), layers.c_str());
    return r.ok ? 0 : 1;
}
