// The benchmark's workloads: `ingest`, `catchup` and `fleet`. Each run is a
// few rounds of (set-up, measured phase) on a fresh cluster; see
// perfbench/README.md for what each workload stresses and why.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    /// Measured wall time to aim for: the run measures round(seconds / 2)
    /// rounds of fixed virtual work, each about two wall seconds on a
    /// 4-core x86 container.
    double seconds = 10;
    bool trace = false;
    /// Shrinks every workload to a few wall seconds (self-tests).
    bool tiny = false;
    /// Chrome trace output path, written when `trace` is on.
    std::string traceOut;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Wall-clock time of one layer per round (traced runs only).
struct LayerTime {
    std::string name;
    double totalS;
    double selfS;
    double calls;
};

struct RunResult {
    bool ok = true;  // false: set-up failed or a metric is unavailable
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, uint64_t>> failures;  // failed, by kind
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<LayerTime> layers;
    std::vector<std::string> notes;
};

RunResult runWorkload(const RunOptions& opt);

}  // namespace perfbench
