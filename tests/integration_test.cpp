// Whole-system integration tests: auto-scaling end to end with ordering,
// segment-store crash failover with WAL fencing, tiering + historical
// catch-up reads, and a long randomized soak that checks exactly-once and
// per-key order under scaling, reconnects and failovers simultaneously.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "client/event_reader.h"
#include "cluster/pravega_cluster.h"
#include "controller/auto_scaler.h"
#include "sim/random.h"

namespace pravega {
namespace {

using client::EventReader;
using cluster::ClusterConfig;
using cluster::PravegaCluster;
using controller::AutoScaler;
using controller::ScaleType;
using controller::StreamConfig;

struct IntegrationFixture : public ::testing::Test {
    ClusterConfig clusterCfg() {
        ClusterConfig cfg;
        cfg.ltsKind = cluster::LtsKind::InMemory;
        cfg.store.container.storage.flushTimeout = sim::msec(200);
        return cfg;
    }
    PravegaCluster cluster{clusterCfg()};
};

TEST_F(IntegrationFixture, AutoScalingSplitsHotStream) {
    StreamConfig cfg;
    cfg.initialSegments = 1;
    cfg.scaling.type = ScaleType::ByRateBytes;
    cfg.scaling.targetRate = 50 * 1024;  // 50 KB/s per segment
    cfg.scaling.scaleFactor = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());

    AutoScaler::Config scfg;
    scfg.pollInterval = sim::msec(500);
    scfg.sustainWindows = 2;
    scfg.cooldown = sim::sec(1);
    AutoScaler scaler(cluster.executor(), cluster.ctrl(), cluster.stores(), scfg);
    scaler.start();

    // Drive ~400 KB/s (8x the per-segment target) for a few seconds.
    auto writer = cluster.makeWriter("sc/st");
    sim::Rng rng(1);
    for (int tick = 0; tick < 80; ++tick) {
        for (int i = 0; i < 40; ++i) {
            writer->writeEvent(rng.nextKey(1000), toBytes(std::string(1024, 'd')));
        }
        writer->flush();
        cluster.runFor(sim::msec(100));
    }
    scaler.stop();

    EXPECT_GT(scaler.splitsIssued(), 0u);
    auto segments = cluster.ctrl().getCurrentSegments("sc/st");
    ASSERT_TRUE(segments.isOk());
    EXPECT_GT(segments.value().size(), 1u);
    EXPECT_GT(cluster.ctrl().scaleEventCount("sc/st"), 0u);
}

TEST_F(IntegrationFixture, AutoScalingMergesColdStream) {
    StreamConfig cfg;
    cfg.initialSegments = 4;
    cfg.scaling.type = ScaleType::ByRateEvents;
    cfg.scaling.targetRate = 1000;  // events/s; actual traffic ≈ 0
    cfg.scaling.minSegments = 1;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());

    AutoScaler::Config scfg;
    scfg.pollInterval = sim::msec(500);
    scfg.sustainWindows = 2;
    scfg.cooldown = sim::msec(600);
    AutoScaler scaler(cluster.executor(), cluster.ctrl(), cluster.stores(), scfg);
    scaler.start();
    cluster.runFor(sim::sec(20));
    scaler.stop();

    EXPECT_GT(scaler.mergesIssued(), 0u);
    auto segments = cluster.ctrl().getCurrentSegments("sc/st");
    ASSERT_TRUE(segments.isOk());
    EXPECT_LT(segments.value().size(), 4u);
}

TEST_F(IntegrationFixture, FailoverPreservesAcknowledgedData) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    int acked = 0;
    for (int i = 0; i < 100; ++i) {
        writer->writeEvent("k", toBytes("pre-crash-" + std::to_string(i)),
                           [&](Status s) { acked += s.isOk(); });
    }
    writer->flush();
    cluster.runUntilIdle();
    ASSERT_EQ(acked, 100);

    // Crash a store; its containers move and recover from WAL (§4.4).
    ASSERT_TRUE(cluster.crashStore(1).isOk());
    cluster.runUntilIdle();

    // Every acknowledged event is still readable, in order.
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r1", cluster.newClientHost());
    for (int i = 0; i < 100; ++i) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(10))) << i;
        ASSERT_TRUE(fut.result().isOk());
        EXPECT_EQ(toString(BytesView(fut.result().value().payload)),
                  "pre-crash-" + std::to_string(i));
    }
}

TEST_F(IntegrationFixture, WritersResumeAfterFailover) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    writer->writeEvent("k", toBytes("before"));
    writer->flush();
    cluster.runUntilIdle();

    ASSERT_TRUE(cluster.crashStore(0).isOk());
    cluster.runUntilIdle();

    // A fresh writer (post-crash controller lookup) reaches the new owner.
    auto fresh = cluster.makeWriter("sc/st");
    int acked = 0;
    fresh->writeEvent("k", toBytes("after"), [&](Status s) { acked += s.isOk(); });
    fresh->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 1);
}

TEST_F(IntegrationFixture, HistoricalCatchUpReadsFromLts) {
    // Write a backlog, let tiering move it to LTS and evict the cache,
    // then a late reader group must catch up entirely from LTS (§5.7).
    ClusterConfig cfg = clusterCfg();
    cfg.ltsKind = cluster::LtsKind::SimulatedObject;
    cfg.store.container.storage.flushSizeBytes = 64 * 1024;
    cfg.store.container.storage.flushTimeout = sim::msec(100);
    cfg.store.cache.maxBuffers = 2;  // tiny cache: force LTS reads
    cfg.store.cache.blocksPerBuffer = 256;
    PravegaCluster tiered(cfg);
    ASSERT_TRUE(tiered.createStream("sc", "st", StreamConfig{}).isOk());

    auto writer = tiered.makeWriter("sc/st");
    const int events = 300;
    for (int i = 0; i < events; ++i) {
        writer->writeEvent("k", toBytes("historic-" + std::to_string(i) + ":" +
                                        std::string(4096, 'h')));
        if (i % 50 == 0) {
            writer->flush();
            tiered.runFor(sim::msec(300));
        }
    }
    writer->flush();
    tiered.runUntilIdle();
    tiered.runFor(sim::sec(3));  // flush + eviction

    auto segments = tiered.ctrl().getCurrentSegments("sc/st");
    auto& uri = segments.value()[0];
    auto* container = uri.registry->containerFor(uri.containerId);
    ASSERT_GT(container->getInfo(uri.record.id).value().storageLength, 0);

    auto group = tiered.makeReaderGroup("g", {"sc/st"});
    auto reader = group.value()->createReader("r1", tiered.newClientHost());
    for (int i = 0; i < events; ++i) {
        auto fut = reader->readNextEvent();
        ASSERT_TRUE(tiered.runUntil([&]() { return fut.isReady(); }, sim::sec(30))) << i;
        ASSERT_TRUE(fut.result().isOk()) << fut.result().status().toString();
        std::string payload = toString(BytesView(fut.result().value().payload));
        EXPECT_EQ(payload.substr(0, payload.find(':')), "historic-" + std::to_string(i));
    }
}

TEST_F(IntegrationFixture, WalBoundedByTiering) {
    // With tiering flushing and checkpoints enabled, the WAL must not grow
    // without bound: ledgers get truncated as data moves to LTS (§4.3).
    ClusterConfig cfg = clusterCfg();
    cfg.store.container.checkpointEveryOps = 200;
    cfg.store.container.storage.flushSizeBytes = 256 * 1024;
    cfg.store.container.storage.flushTimeout = sim::msec(100);
    cfg.store.container.log.rolloverBytes = 512 * 1024;
    PravegaCluster tiered(cfg);
    ASSERT_TRUE(tiered.createStream("sc", "st", StreamConfig{}).isOk());

    auto writer = tiered.makeWriter("sc/st");
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 64; ++i) {
            writer->writeEvent("k", toBytes(std::string(4096, 'w')));
        }
        writer->flush();
        tiered.runFor(sim::msec(200));
    }
    tiered.runFor(sim::sec(2));

    auto uri = tiered.ctrl().getCurrentSegments("sc/st").value()[0];
    auto* container = uri.registry->containerFor(uri.containerId);
    EXPECT_GT(container->walTruncations(), 0u);
    EXPECT_LT(container->walLog().ledgerCount(), 8u);
    // ~10 MB written; the bookies must hold far less than that.
    uint64_t bookieBytes = 0;
    for (auto* b : tiered.bookies()) bookieBytes = std::max(bookieBytes, b->storedBytes());
    EXPECT_LT(bookieBytes, 8ULL * 1024 * 1024);
}

TEST_F(IntegrationFixture, RandomizedSoakExactlyOnceInOrder) {
    // Chaos soak: writers with reconnects + manual scale + store crash,
    // then verify every acknowledged event is read exactly once and
    // per-key order holds.
    StreamConfig cfg;
    cfg.initialSegments = 2;
    ASSERT_TRUE(cluster.createStream("sc", "st", cfg).isOk());
    auto writer = cluster.makeWriter("sc/st");
    sim::Rng rng(2024);

    std::map<std::string, int> written;
    int acked = 0, sent = 0;
    auto write = [&](int n) {
        for (int i = 0; i < n; ++i) {
            std::string key = "key-" + std::to_string(rng.nextBounded(8));
            int seq = written[key]++;
            ++sent;
            writer->writeEvent(key, toBytes(key + "#" + std::to_string(seq)),
                               [&](Status s) { acked += s.isOk(); });
        }
    };

    write(200);
    writer->flush();
    cluster.runFor(sim::msec(50));
    writer->simulateReconnect();
    write(200);
    writer->flush();
    cluster.runFor(sim::msec(50));

    // Manual scale of one current segment.
    auto segs = cluster.ctrl().getCurrentSegments("sc/st").value();
    double mid = (segs[0].record.keyStart + segs[0].record.keyEnd) / 2;
    auto scale = cluster.ctrl().scaleStream("sc/st", {segs[0].record.id},
                                            {{segs[0].record.keyStart, mid},
                                             {mid, segs[0].record.keyEnd}});
    write(200);
    writer->flush();
    ASSERT_TRUE(cluster.runUntil([&]() { return scale.isReady(); }, sim::sec(10)));
    write(200);
    writer->flush();
    cluster.runUntilIdle();

    // Crash a store mid-run, then write more with a fresh writer.
    ASSERT_TRUE(cluster.crashStore(2).isOk());
    cluster.runUntilIdle();
    auto writer2 = cluster.makeWriter("sc/st");
    for (int i = 0; i < 100; ++i) {
        std::string key = "key-" + std::to_string(rng.nextBounded(8));
        int seq = written[key]++;
        ++sent;
        writer2->writeEvent(key, toBytes(key + "#" + std::to_string(seq)),
                            [&](Status s) { acked += s.isOk(); });
    }
    writer2->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, sent);

    // Verify: read until dry; exactly-once + per-key order.
    auto group = cluster.makeReaderGroup("g", {"sc/st"});
    auto r1 = group.value()->createReader("r1", cluster.newClientHost());
    auto r2 = group.value()->createReader("r2", cluster.newClientHost());
    std::map<std::string, int> seen;
    int total = 0;
    auto consume = [&](EventReader& reader) {
        auto fut = reader.readNextEvent();
        if (!cluster.runUntil([&]() { return fut.isReady(); }, sim::sec(2))) return false;
        if (!fut.result().isOk()) return false;
        std::string s = toString(BytesView(fut.result().value().payload));
        auto hash = s.find('#');
        std::string key = s.substr(0, hash);
        int seq = std::stoi(s.substr(hash + 1));
        EXPECT_EQ(seq, seen[key]) << "order/duplication violated for " << key;
        seen[key] = seq + 1;
        ++total;
        return true;
    };
    while (total < sent) {
        if (!consume(*r1) && !consume(*r2)) break;
    }
    EXPECT_EQ(total, sent);
    for (auto& [key, n] : written) EXPECT_EQ(seen[key], n) << key;
}

}  // namespace
}  // namespace pravega
