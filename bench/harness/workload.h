// Open-loop workload driver (the OpenMessaging-Benchmark stand-in, §5.1):
// producers emit events at a target rate regardless of acknowledgements;
// latency is sampled from acks and throughput measured from acknowledged
// events, exactly like the paper's latency-vs-throughput sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "sim/machine.h"
#include "sim/random.h"

namespace pravega::bench {

/// One producer's send entry point. `ack(ok)` may be null (unsampled).
using SendFn = std::function<void(std::string_view key, uint32_t size,
                                  std::function<void(bool ok)> ack)>;

struct Producer {
    SendFn send;
    std::function<void()> flush;  // optional
};

struct WorkloadConfig {
    double eventsPerSec = 10000;  // aggregate across all producers
    uint32_t eventBytes = 100;
    bool useKeys = true;          // random routing keys (§5.1 default)
    uint64_t keySpace = 50000;
    sim::Duration warmup = sim::msec(500);
    sim::Duration window = sim::sec(3);
    /// Caps total generated events (bounds bench wall time at high rates).
    uint64_t maxEvents = 2'000'000;
    /// 0 = auto (target ~4000 samples per run).
    uint32_t sampleEvery = 0;
    uint64_t seed = 42;
};

struct RunStats {
    double offeredEventsPerSec = 0;
    double achievedEventsPerSec = 0;
    double achievedMBps = 0;
    double p50Ms = 0, p95Ms = 0, p99Ms = 0, meanMs = 0;
    uint64_t sent = 0, ackedSamples = 0, errors = 0;
    double windowSec = 0;
};

/// Drives `producers` at the aggregate target rate for warmup+window and
/// reports acked-sample latency percentiles plus achieved throughput
/// (acknowledged events per second of measurement window).
RunStats runOpenLoop(sim::Machine& exec, std::vector<Producer>& producers,
                     const WorkloadConfig& cfg);

}  // namespace pravega::bench
