// Focused tests for the writer's adaptive batching (§4.1, Fig 3) and the
// container's data-frame delay formula — the two levels of batching that
// Fig 6/§5.3 attribute Pravega's latency/throughput balance to.
#include <gtest/gtest.h>

#include "client/segment_output_stream.h"
#include "cluster/pravega_cluster.h"

namespace pravega::client {
namespace {

using cluster::ClusterConfig;
using cluster::PravegaCluster;
using controller::StreamConfig;

struct BatchingFixture : public ::testing::Test {
    ClusterConfig clusterCfg() {
        ClusterConfig cfg;
        cfg.ltsKind = cluster::LtsKind::InMemory;
        return cfg;
    }
    PravegaCluster cluster{clusterCfg()};

    segmentstore::SegmentContainer* containerOf(const controller::SegmentUri& uri) {
        return uri.registry->containerFor(uri.containerId);
    }
};

TEST_F(BatchingFixture, LowRateEventsShipWithoutWaitingForFullBatches) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    // A single small event must be acknowledged in a few milliseconds —
    // the writer never waits for a size-based batch to fill (the Fig 3
    // "server-side collection" design point).
    sim::TimePoint start = cluster.executor().now();
    bool done = false;
    writer->writeEvent("k", toBytes("solo"), [&](Status s) {
        ASSERT_TRUE(s.isOk());
        done = true;
    });
    cluster.runUntilIdle();
    ASSERT_TRUE(done);
    EXPECT_LT(cluster.executor().now() - start, sim::msec(15));
}

TEST_F(BatchingFixture, HighRateEventsCoalesceIntoFewAppends) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    auto uri = cluster.ctrl().getCurrentSegments("sc/st").value()[0];
    auto* container = containerOf(uri);
    // 50k events delivered as a burst: client blocks + server frames must
    // compress them into orders of magnitude fewer WAL entries.
    int acked = 0;
    for (int i = 0; i < 50000; ++i) {
        writer->writeEvent("k", toBytes(std::string(100, 'b')), [&](Status) { ++acked; });
    }
    writer->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 50000);
    EXPECT_LT(container->walLog().nextSequence(), 500);
    EXPECT_EQ(container->getInfo(uri.record.id).value().length,
              50000 * (100 + 4));  // payload + event framing
}

TEST_F(BatchingFixture, OutstandingWindowBoundsInFlightData) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    client::WriterConfig wcfg;
    wcfg.maxOutstandingBytes = 64 * 1024;  // tiny window
    auto writer = cluster.makeWriter("sc/st", wcfg);
    // Saturating burst: the client must queue rather than exceed the
    // window, and still deliver everything (more slowly).
    int acked = 0;
    for (int i = 0; i < 5000; ++i) {
        writer->writeEvent("k", toBytes(std::string(1000, 'w')), [&](Status) { ++acked; });
    }
    writer->flush();
    cluster.runUntilIdle();
    EXPECT_EQ(acked, 5000);
}

TEST_F(BatchingFixture, FrameDelayFormulaRespectsBound) {
    // currentBatchDelay = RecentLatency * (1 - AvgWriteSize/MaxFrame),
    // clamped to maxBatchDelay: after idle (no traffic) the delay must be
    // within [0, maxBatchDelay] regardless of EWMA state.
    ClusterConfig ccfg = clusterCfg();
    ccfg.store.container.maxBatchDelay = sim::msec(5);
    PravegaCluster c2(ccfg);
    ASSERT_TRUE(c2.createStream("sc", "st", StreamConfig{}).isOk());
    auto uri = c2.ctrl().getCurrentSegments("sc/st").value()[0];
    auto* container = uri.registry->containerFor(uri.containerId);
    EXPECT_GE(container->currentBatchDelay(), 0);
    EXPECT_LE(container->currentBatchDelay(), sim::msec(5));

    auto writer = c2.makeWriter("sc/st");
    for (int i = 0; i < 2000; ++i) writer->writeEvent("k", toBytes(std::string(900, 'f')));
    writer->flush();
    c2.runUntilIdle();
    EXPECT_GE(container->currentBatchDelay(), 0);
    EXPECT_LE(container->currentBatchDelay(), sim::msec(5));
}

TEST_F(BatchingFixture, FullFramesCarryNoArtificialDelay) {
    // When frames run full (high fill ratio), the delay formula should
    // approach zero: full pipelines must not wait.
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto uri = cluster.ctrl().getCurrentSegments("sc/st").value()[0];
    auto* container = containerOf(uri);
    auto writer = cluster.makeWriter("sc/st");
    // Sustained large appends → frames fill to maxFrameBytes.
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 200; ++i) {
            writer->writeEvent("k", toBytes(std::string(10000, 'x')));
        }
        writer->flush();
        cluster.runFor(sim::msec(20));
    }
    // Fill ratio near 1 ⇒ delay near 0 (well under the WAL latency).
    EXPECT_LT(container->currentBatchDelay(), sim::msec(2));
}

TEST_F(BatchingFixture, WriterRttEstimateConverges) {
    ASSERT_TRUE(cluster.createStream("sc", "st", StreamConfig{}).isOk());
    auto writer = cluster.makeWriter("sc/st");
    for (int round = 0; round < 50; ++round) {
        writer->writeEvent("k", toBytes("ping"));
        writer->flush();
        cluster.runFor(sim::msec(10));
    }
    // No direct accessor on EventWriter; assert end-to-end effect instead:
    // a freshly measured single-event ack lands within ~2x the pipeline's
    // natural latency (converged estimates do not inflate batching waits).
    sim::TimePoint start = cluster.executor().now();
    bool done = false;
    writer->writeEvent("k", toBytes("probe"), [&](Status) { done = true; });
    cluster.runUntilIdle();
    ASSERT_TRUE(done);
    EXPECT_LT(cluster.executor().now() - start, sim::msec(10));
}

}  // namespace
}  // namespace pravega::client
