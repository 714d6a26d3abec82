#include "bench/harness/workload.h"

#include <cstdio>
#include <memory>

namespace pravega::bench {

namespace {
struct RunCtx {
    obs::LatencyHistogram hist;
    uint64_t ackedInWindow = 0;
    uint64_t errors = 0;
    sim::TimePoint windowStart = 0;
    sim::TimePoint windowEnd = 0;
};
}  // namespace

RunStats runOpenLoop(sim::Machine& exec, std::vector<Producer>& producers,
                     const WorkloadConfig& cfg) {
    auto ctx = std::make_shared<RunCtx>();
    sim::Rng rng(cfg.seed);

    const sim::TimePoint genStart = exec.now();
    ctx->windowStart = genStart + cfg.warmup;
    ctx->windowEnd = ctx->windowStart + cfg.window;

    uint32_t sampleEvery = cfg.sampleEvery;
    if (sampleEvery == 0) {
        double expected = cfg.eventsPerSec * sim::toSeconds(cfg.window);
        sampleEvery = static_cast<uint32_t>(std::max(1.0, expected / 4000.0));
    }

    uint64_t sent = 0;
    double carry = 0;
    size_t rr = 0;
    const sim::Duration tick = sim::msec(1);

    // Self-rescheduling generator: emits the per-tick share of the target
    // rate, rotating producers round-robin.
    auto gen = std::make_shared<std::function<void()>>();
    *gen = [&, ctx, gen]() {
        if (exec.now() >= ctx->windowEnd || sent >= cfg.maxEvents) {
            // Break the self-reference once the current invocation unwinds.
            exec.post([gen]() { *gen = nullptr; });
            return;
        }
        carry += cfg.eventsPerSec * sim::toSeconds(tick);
        uint64_t emit = static_cast<uint64_t>(carry);
        carry -= static_cast<double>(emit);
        for (uint64_t i = 0; i < emit && sent < cfg.maxEvents; ++i) {
            Producer& producer = producers[rr];
            rr = (rr + 1) % producers.size();
            std::string key = cfg.useKeys ? rng.nextKey(cfg.keySpace) : std::string();
            ++sent;
            std::function<void(bool)> ack;
            bool sampled = (sent % sampleEvery) == 0;
            sim::TimePoint now = exec.now();
            if (now >= ctx->windowStart) {
                // Window accounting (and latency when sampled).
                ack = [ctx, sampled, now, &exec](bool ok) {
                    if (!ok) {
                        ++ctx->errors;
                        return;
                    }
                    if (exec.now() <= ctx->windowEnd + sim::msec(50)) ++ctx->ackedInWindow;
                    if (sampled) ctx->hist.record(exec.now() - now);
                };
            }
            producer.send(key, cfg.eventBytes, std::move(ack));
        }
        exec.schedule(tick, *gen);
    };
    exec.schedule(0, *gen);

    // Run generation + a grace period for trailing acks.
    exec.runUntil(ctx->windowEnd);
    for (auto& p : producers) {
        if (p.flush) p.flush();
    }
    exec.runFor(sim::msec(60));

    RunStats out;
    out.offeredEventsPerSec = cfg.eventsPerSec;
    out.windowSec = sim::toSeconds(cfg.window);
    // If the event cap ended generation early, scale the window down.
    double genSec =
        std::min(out.windowSec, static_cast<double>(sent) / std::max(cfg.eventsPerSec, 1.0) -
                                    sim::toSeconds(cfg.warmup));
    if (genSec > 0.05) out.windowSec = genSec;
    out.sent = sent;
    out.ackedSamples = ctx->hist.count();
    out.errors = ctx->errors;
    out.achievedEventsPerSec = static_cast<double>(ctx->ackedInWindow) / out.windowSec;
    out.achievedMBps =
        out.achievedEventsPerSec * static_cast<double>(cfg.eventBytes) / (1024.0 * 1024.0);
    out.p50Ms = ctx->hist.percentileMs(50);
    out.p95Ms = ctx->hist.percentileMs(95);
    out.p99Ms = ctx->hist.percentileMs(99);
    out.meanMs = ctx->hist.meanMs();
    return out;
}

}  // namespace pravega::bench
