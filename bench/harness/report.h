// Unified bench reporting: every figure bench declares its rows through a
// Report, which renders the aligned text table on stdout AND writes a
// schema-stable machine-readable BENCH_<name>.json (schema "pravega-bench/v1")
// with achieved throughput, latency percentiles, and the key obs:: counters
// of the world that produced each row.
//
// JSON layout:
//   { "schema": "pravega-bench/v1", "name": "...", "title": "...",
//     "smoke": false,
//     "rows": [ { "section": "...", "series": "...", "note": "...",
//                 "values": { "<column>": <number>, ... },
//                 "metrics": { "<obs counter>": <number>,
//                              "trace.*.count|p50_ns|p99_ns": <number> } } ],
//     "notes": [ "..." ] }
//
// The file goes to $BENCH_OUT_DIR (if set) or the working directory. All
// values derive from virtual time, so same-seed runs write byte-identical
// JSON.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bench/harness/workload.h"
#include "obs/metrics.h"

namespace pravega::bench {

/// True when BENCH_SMOKE=1 in the environment: benches shrink to one tiny
/// sweep point each so CI can validate every binary end-to-end in seconds.
bool smoke();

/// True when BENCH_CHAOS=1 in the environment: figure benches that support
/// it add a chaos+detection sweep (faults injected mid-window, a
/// detect::Monitor scoring alarms against the chaos ground truth).
bool chaosMode();

/// Shrinks an open-loop workload for smoke runs: sub-second window, short
/// warmup, capped events and rate. Identity when smoke() is false.
WorkloadConfig shrinkForSmoke(WorkloadConfig cfg);

class Report {
public:
    /// `name` keys the output file (BENCH_<name>.json); `title` heads the
    /// stdout table.
    Report(std::string name, std::string title);
    ~Report();  // writes the JSON if finish() was not called explicitly

    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;

    /// Starts a new section (one figure sub-plot). The standard column
    /// header is reprinted before the section's first standard row.
    void section(const std::string& title, const std::string& note = "");

    /// Standard producer-side sweep row (the Fig 5/6/7 table shape).
    void add(const std::string& series, const RunStats& s,
             const obs::MetricsRegistry* metrics = nullptr);

    /// Consumer-side row for the tail-read figures: achieved throughput and
    /// percentiles come from the consumers' e2e histogram; offered rate and
    /// event size from the producer-side stats.
    void addE2e(const std::string& series, const RunStats& s, double consumedEventsPerSec,
                uint32_t eventBytes, const obs::LatencyHistogram& e2e,
                const obs::MetricsRegistry* metrics = nullptr);

    /// Free-form row: ordered (column, value) pairs, printed as key=value.
    /// Used by the parallelism/ablation benches whose natural columns are
    /// not the standard sweep ones.
    void addCustom(const std::string& series,
                   const std::vector<std::pair<std::string, double>>& values,
                   const obs::MetricsRegistry* metrics = nullptr,
                   const std::string& note = "");

    /// Prints "# text" and records it in the JSON notes array.
    void note(const std::string& text);

    /// Appends one detection run (a pre-rendered JSON object from
    /// detect::detectionRunJson) to the report's "detection" section:
    ///   "detection": {"runs": [ {...}, ... ]}
    /// The section is only emitted when at least one run was added.
    void addDetectionRun(const std::string& runJson);

    /// Writes BENCH_<name>.json; idempotent. Returns the path written.
    std::string finish();

private:
    struct Row {
        std::string section;
        std::string series;
        std::string note;
        std::vector<std::pair<std::string, double>> values;   // column order
        std::vector<std::pair<std::string, double>> metrics;  // name-sorted
    };

    void captureMetrics(const obs::MetricsRegistry* reg, Row& row);
    void printStandardHeader();

    std::string name_;
    std::string title_;
    std::string currentSection_;
    bool headerPrinted_ = false;  // per-section standard header
    bool finished_ = false;
    std::vector<Row> rows_;
    std::vector<std::string> notes_;
    std::vector<std::string> detectionRuns_;  // pre-rendered JSON objects
};

}  // namespace pravega::bench
