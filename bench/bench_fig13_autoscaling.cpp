// Figure 13: stream auto-scaling and its effect on performance (§5.8).
//
// One stream starting with ONE segment; scaling policy targets 20 MB/s per
// segment (2k events/s of 10KB events); the benchmark writes 100 MB/s.
// Paper shapes: the stream splits repeatedly, the load spreads over the
// segment stores, and p50 write latency drops as splits land.
#include "bench/harness/adapters.h"
#include "bench/harness/report.h"
#include "controller/auto_scaler.h"
#include "workload/fleet.h"

using namespace pravega;
using namespace pravega::bench;

namespace {

// Max/min per-store ingest over one trailing window: snapshot every
// container's monotonic byte counter, advance the sim, attribute the deltas
// to each container's (current) owner. Works identically whether or not the
// rebalancer is running, so the static and rebalanced rows are comparable.
double finalWindowRatio(cluster::PravegaCluster& c, sim::Duration window) {
    std::map<uint32_t, uint64_t> snap;
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        auto* container = c.registry().containerFor(cid);
        if (container) snap[cid] = container->totalBytesIn();
    }
    c.runFor(window);
    std::map<segmentstore::SegmentStore*, uint64_t> perStore;
    for (auto* s : c.stores()) perStore[s] = 0;
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        auto* owner = c.registry().ownerOf(cid);
        auto* container = owner ? owner->container(cid) : nullptr;
        if (container == nullptr) continue;
        uint64_t cum = container->totalBytesIn();
        uint64_t prev = snap.count(cid) ? snap[cid] : 0;
        perStore[owner] += cum >= prev ? cum - prev : cum;  // moved → fresh
    }
    uint64_t maxLoad = 0, minLoad = UINT64_MAX;
    for (const auto& [s, load] : perStore) {
        maxLoad = std::max(maxLoad, load);
        minLoad = std::min(minLoad, load);
    }
    return static_cast<double>(maxLoad) /
           static_cast<double>(std::max<uint64_t>(minLoad, 1));
}

}  // namespace

int main() {
    PravegaOptions opt;
    opt.segments = 1;
    opt.numWriters = 4;
    opt.tweak = [](cluster::ClusterConfig& cfg) {
        cfg.store.container.storage.flushTimeout = sim::msec(500);
        // A modest per-stream LTS cap: one segment carrying the full 100
        // MB/s outruns its LTS stream and gets throttled (§4.3); splitting
        // spreads the load below the cap, so write latency drops — the
        // Fig 13 bottom plot's dynamic.
        cfg.lts.perStreamBytesPerSec = 80.0 * 1024 * 1024;
        cfg.store.container.throttleStartSegmentBytes = 24ULL * 1024 * 1024;
        cfg.store.container.throttleFullSegmentBytes = 96ULL * 1024 * 1024;
    };
    // Auto-scaling policy: 20 MB/s per segment (paper: 2k e/s of 10KB).
    auto world = makePravega(opt);
    // Recreate the stream with the scaling policy (makePravega uses fixed).
    // Simpler: create a second stream with the policy and use it.
    controller::StreamConfig scfg;
    scfg.initialSegments = 1;
    scfg.scaling.type = controller::ScaleType::ByRateBytes;
    scfg.scaling.targetRate = 20.0 * 1024 * 1024;
    scfg.scaling.scaleFactor = 2;
    world->cluster->ctrl().createScope("scale");
    auto created = world->cluster->ctrl().createStream("scale", "stream", scfg);
    world->cluster->runUntil([&]() { return created.isReady(); }, sim::sec(5));

    std::vector<std::unique_ptr<client::EventWriter>> writers;
    for (int i = 0; i < 4; ++i) writers.push_back(world->cluster->makeWriter("scale/stream"));

    controller::AutoScaler::Config acfg;
    acfg.pollInterval = sim::sec(1);
    acfg.sustainWindows = 2;
    acfg.cooldown = sim::sec(3);
    controller::AutoScaler scaler(world->exec(), world->cluster->ctrl(),
                                  world->cluster->stores(), acfg);
    scaler.start();

    Report report("fig13_autoscaling",
                  "Figure 13: auto-scaling, 100 MB/s into 1 initial segment, "
                  "target 20 MB/s/segment");
    report.section("time series (1s buckets); per-store MB/s from the scaler's rates");

    constexpr double kWriteMBps = 100.0;
    constexpr uint32_t kEventBytes = 10 * 1024;
    const int seconds = smoke() ? 5 : 60;
    sim::Rng rng(3);
    obs::LatencyHistogram hist;
    double carry = 0;
    size_t rr = 0;

    for (int t = 0; t < seconds; ++t) {
        hist.reset();
        sim::TimePoint second = world->exec().now() + sim::sec(1);
        while (world->exec().now() < second) {
            carry += kWriteMBps * 1024 * 1024 / kEventBytes / 1000.0;
            while (carry >= 1.0) {
                carry -= 1.0;
                sim::TimePoint sentAt = world->exec().now();
                Bytes payload(kEventBytes, 0);
                writers[rr]->writeEvent(rng.nextKey(100000), BytesView(payload),
                                        [&hist, sentAt, &world](Status s) {
                                            if (s.isOk()) {
                                                hist.record(world->exec().now() - sentAt);
                                            }
                                        });
                rr = (rr + 1) % writers.size();
            }
            world->exec().runFor(sim::msec(1));
        }
        auto segments = world->cluster->ctrl().getCurrentSegments("scale/stream");
        size_t segCount = segments ? segments.value().size() : 0;
        // Per-store ingest in this second (Fig 13's top plot). The scaler
        // drains the raw counters; its per-segment rates map back to the
        // owning stores.
        std::map<sim::HostId, double> perStore;
        for (auto* store : world->cluster->stores()) perStore[store->host()] = 0;
        for (const auto& [seg, rate] : scaler.lastRates()) {
            auto uri = world->cluster->ctrl().uriOf(seg);
            if (!uri) continue;
            perStore[uri.value().registry->ownerOf(uri.value().containerId)->host()] += rate;
        }
        std::vector<std::pair<std::string, double>> row = {
            {"t_sec", static_cast<double>(t)},
            {"segments", static_cast<double>(segCount)},
            {"p50_ms", hist.percentileMs(50)},
            {"p95_ms", hist.percentileMs(95)}};
        int storeIdx = 0;
        for (auto& [host, rate] : perStore) {
            row.emplace_back("store" + std::to_string(storeIdx++) + "_mbps",
                             rate / (1024 * 1024));
        }
        report.addCustom("autoscale", row);
    }
    scaler.stop();
    report.addCustom("summary",
                     {{"splits_issued", static_cast<double>(scaler.splitsIssued())},
                      {"final_segments", static_cast<double>(world->cluster->ctrl()
                                                                 .scaleEventCount(
                                                                     "scale/stream") +
                                                             1)}},
                     &world->exec().mergedMetrics());

    // ------------------------------------------------------------------
    // Fleet sweep (§3.1 at fleet scale): a 10k-stream / 100k-producer
    // aggregate-client workload, used to compare static cid % N container
    // placement against the load-aware rebalancer, and to show per-tenant
    // quotas isolating a noisy neighbor while auto-scaling absorbs its
    // (throttled) load.
    report.section("fleet: 10k streams, 100k modeled producers; rebalance + quotas");
    const sim::Duration fleetRun = smoke() ? sim::sec(3) : sim::sec(10);
    const sim::Duration measureWindow = sim::msec(500);

    auto bigFleetCfg = []() {
        workload::FleetConfig fc;
        fc.seed = 1234;
        fc.tick = sim::msec(250);
        workload::TenantSpec t;
        t.scope = "fleet";
        t.streams = 10000;
        t.producersPerStream = 10;       // 100k modeled producers
        t.producerEventsPerSec = 0.2;    // 20k events/s fleet-wide
        t.eventBytes = 256;
        t.streamSkewTheta = 1.4;         // hottest stream ~1/3 of fleet load
        t.keySkewTheta = 1.0;
        t.keysPerStream = 100;
        fc.tenants.push_back(t);
        return fc;
    };

    auto runPlacementRow = [&](const std::string& series, bool rebalance) {
        cluster::ClusterConfig cfg;
        cfg.ltsKind = cluster::LtsKind::InMemory;
        cfg.segmentStores = 6;
        cfg.containerCount = 12;
        cfg.rebalanceContainers = rebalance;
        cfg.rebalancer.pollInterval = sim::msec(500);
        cfg.rebalancer.moveBudgetPerPoll = 3;
        cfg.rebalancer.minStoreBytesPerSec = 16.0 * 1024;
        cluster::PravegaCluster c(cfg);

        workload::FleetWorkload fleet(c, bigFleetCfg());
        Status st = fleet.setup();
        if (!st) {
            report.note(series + " setup failed: " + st.toString());
            return;
        }
        fleet.start();
        c.runFor(fleetRun - measureWindow);
        double ratio = finalWindowRatio(c, measureWindow);
        fleet.stop();
        c.runUntilIdle();

        double moves =
            rebalance ? static_cast<double>(c.rebalancer()->movesIssued()) : 0.0;
        report.addCustom(
            series,
            {{"streams", static_cast<double>(fleet.streamCount())},
             {"modeled_producers", static_cast<double>(fleet.modeledProducers())},
             {"offered_events", static_cast<double>(fleet.offeredEvents())},
             {"acked_events", static_cast<double>(fleet.ackedEvents())},
             {"errored_events", static_cast<double>(fleet.erroredEvents())},
             {"max_min_ratio", ratio},
             {"moves", moves},
             {"key_checksum_hi", static_cast<double>(fleet.keyChecksum() >> 32)},
             {"key_checksum_lo",
              static_cast<double>(fleet.keyChecksum() & 0xFFFFFFFFull)}});
    };
    runPlacementRow("fleet-static", false);
    runPlacementRow("fleet-rebalance", true);

    // Noisy-neighbor scenario: two tenants on one cluster; "noisy" carries a
    // 256 KB/s quota and offers 1 MB/s (control: 100 KB/s); "steady" has no
    // quota and must ride through untouched. Auto-scaling (64 KB/s/segment)
    // splits the noisy streams' hot segments instead of starving anyone.
    auto runQuotaRow = [&](const std::string& series, double noisyEventsPerSec) {
        cluster::ClusterConfig cfg;
        cfg.ltsKind = cluster::LtsKind::InMemory;
        cfg.tenantQuotas = true;
        cfg.quota.pollInterval = sim::msec(250);
        cluster::PravegaCluster c(cfg);
        c.quotas()->setQuota("noisy", 256.0 * 1024);

        workload::FleetConfig fc;
        fc.seed = 77;
        fc.tick = sim::msec(125);
        workload::TenantSpec noisy;
        noisy.scope = "noisy";
        noisy.streams = 2;
        noisy.producersPerStream = 100;
        noisy.producerEventsPerSec = noisyEventsPerSec;
        noisy.eventBytes = 512;
        noisy.streamConfig.scaling.type = controller::ScaleType::ByRateBytes;
        noisy.streamConfig.scaling.targetRate = 64.0 * 1024;
        fc.tenants.push_back(noisy);
        workload::TenantSpec steady;
        steady.scope = "steady";
        steady.streams = 20;
        steady.producersPerStream = 10;
        steady.producerEventsPerSec = 2.0;
        steady.eventBytes = 256;
        fc.tenants.push_back(steady);

        workload::FleetWorkload fleet(c, fc);
        fleet.attachQuotas(c.quotas());
        Status st = fleet.setup();
        if (!st) {
            report.note(series + " setup failed: " + st.toString());
            return;
        }
        controller::AutoScaler::Config acfg;
        acfg.pollInterval = sim::msec(500);
        acfg.sustainWindows = 2;
        acfg.cooldown = sim::sec(1);
        controller::AutoScaler fleetScaler(c.machine(), c.ctrl(), c.stores(), acfg);
        fleetScaler.start();
        fleet.start();
        c.runFor(sim::sec(4));
        fleet.stop();
        fleetScaler.stop();
        c.runUntilIdle();

        double steadyFrac =
            fleet.offeredFor("steady") == 0
                ? 0.0
                : static_cast<double>(fleet.ackedFor("steady")) /
                      static_cast<double>(fleet.offeredFor("steady"));
        report.addCustom(
            series,
            {{"streams", static_cast<double>(fleet.streamCount())},
             {"modeled_producers", static_cast<double>(fleet.modeledProducers())},
             {"offered_events", static_cast<double>(fleet.offeredEvents())},
             {"acked_events", static_cast<double>(fleet.ackedEvents())},
             {"quota_throttled_events", static_cast<double>(fleet.throttledEvents())},
             {"noisy_rate_bps", c.quotas()->measuredRate("noisy")},
             {"steady_acked_frac", steadyFrac},
             {"noisy_splits", static_cast<double>(fleetScaler.splitsIssued())}});
    };
    runQuotaRow("fleet-noisy", 10.0);   // 1 MB/s offered vs 256 KB/s quota
    runQuotaRow("fleet-control", 1.0);  // 100 KB/s offered — under quota
    return 0;
}
