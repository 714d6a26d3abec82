// Tests for the Kafka-like and Pulsar-like baselines: produce/consume
// round trips, batching semantics, durability modes, the Pulsar broker
// OOM mechanism under a lagging bookie, and the tiering offloader.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "baselines/kafka_like.h"
#include "baselines/pulsar_like.h"
#include "sim/network.h"
#include "wal/log_client.h"

namespace pravega::baselines {
namespace {

struct KafkaFixture : public ::testing::Test {
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};

    std::unique_ptr<KafkaCluster> makeCluster(KafkaConfig cfg = {}) {
        return std::make_unique<KafkaCluster>(exec, net, /*firstBrokerHost=*/500, cfg);
    }
};

TEST_F(KafkaFixture, ProduceAcksAfterReplication) {
    auto kafka = makeCluster();
    kafka->createTopic("t", 4);
    auto producer = kafka->makeProducer(1, "t");
    int acked = 0;
    for (int i = 0; i < 100; ++i) {
        producer->send("key-" + std::to_string(i), 100, [&](Status s) { acked += s.isOk(); });
    }
    producer->flush();
    exec.runFor(sim::sec(1));
    EXPECT_EQ(acked, 100);
    EXPECT_EQ(kafka->bytesProduced(), 100u * 100u);
}

TEST_F(KafkaFixture, ConsumerReceivesWithLatency) {
    auto kafka = makeCluster();
    kafka->createTopic("t", 1);
    uint32_t got = 0;
    sim::Duration worst = 0;
    auto consumer = kafka->makeConsumer(2, "t", 0,
                                        [&](uint32_t events, uint64_t, sim::Duration e2e) {
                                            got += events;
                                            worst = std::max(worst, e2e);
                                        });
    auto producer = kafka->makeProducer(1, "t");
    for (int i = 0; i < 50; ++i) producer->send("", 100, {});
    producer->flush();
    exec.runFor(sim::sec(1));
    EXPECT_EQ(got, 50u);
    EXPECT_GT(worst, 0);
    EXPECT_LT(worst, sim::msec(50));
}

TEST_F(KafkaFixture, FlushModeIsSlower) {
    // §5.2: enforcing durability (flush.messages=1) costs latency.
    auto measure = [&](bool flushEveryMessage) {
        KafkaConfig cfg;
        cfg.flushEveryMessage = flushEveryMessage;
        cfg.disk.fsyncLatency = sim::usec(500);
        sim::Machine e2;
        sim::Network n2{e2, sim::Link::Config{}};
        KafkaCluster kafka(e2, n2, 500, cfg);
        kafka.createTopic("t", 1);
        auto producer = kafka.makeProducer(1, "t");
        sim::TimePoint done = 0;
        int acked = 0;
        for (int i = 0; i < 20; ++i) {
            producer->send("k", 100, [&](Status) {
                if (++acked == 20) done = e2.now();
            });
            producer->flush();
        }
        e2.runFor(sim::sec(2));
        EXPECT_EQ(acked, 20);
        return done;
    };
    EXPECT_GT(measure(true), measure(false));
}

TEST_F(KafkaFixture, StickyPartitioningConcentratesBatches) {
    auto kafka = makeCluster();
    kafka->createTopic("t", 16);
    auto producer = kafka->makeProducer(1, "t");
    // Without keys, consecutive sends fill ONE partition's batch before
    // rotating (much better batching, §5.3/§5.5).
    int acked = 0;
    for (int i = 0; i < 1000; ++i) producer->send("", 128, [&](Status) { ++acked; });
    producer->flush();
    exec.runFor(sim::sec(1));
    EXPECT_EQ(acked, 1000);
}

TEST(KafkaSeedTest, SameConfigGivesSamePartitionBytes) {
    // Producer seeds come from their cluster, not from how many producers
    // the process made before: two identical clusters built one after the
    // other spread the same keyless sends over the same partitions.
    constexpr int kPartitions = 8;
    auto run = [] {
        sim::Machine exec;
        sim::Network net{exec, sim::Link::Config{}};
        KafkaCluster kafka(exec, net, /*firstBrokerHost=*/500, KafkaConfig{});
        kafka.createTopic("t", kPartitions);
        std::vector<uint64_t> bytes(kPartitions, 0);
        std::vector<std::unique_ptr<KafkaConsumer>> consumers;
        for (int p = 0; p < kPartitions; ++p) {
            consumers.push_back(kafka.makeConsumer(
                2, "t", p, [&bytes, p](uint32_t, uint64_t n, sim::Duration) { bytes[p] += n; }));
        }
        auto producer = kafka.makeProducer(1, "t");
        for (int i = 0; i < 2000; ++i) producer->send("", 512, {});
        producer->flush();
        exec.runFor(sim::sec(2));
        return bytes;
    };
    auto first = run();
    auto second = run();
    EXPECT_EQ(first, second);
    EXPECT_GT(std::count_if(first.begin(), first.end(), [](uint64_t b) { return b > 0; }), 1);
}

TEST_F(KafkaFixture, ProducerBufferLimitRejectsWhenFull) {
    KafkaConfig cfg;
    cfg.maxPendingBytes = 64 * 1024;
    auto kafka = makeCluster(cfg);
    kafka->createTopic("t", 1);
    auto producer = kafka->makeProducer(1, "t");
    int rejected = 0;
    // Saturate without running the sim: the buffer fills up.
    for (int i = 0; i < 5000; ++i) {
        producer->send("k", 1024, [&](Status s) { rejected += s.code() == Err::Throttled; });
    }
    exec.runFor(sim::sec(2));
    EXPECT_GT(rejected, 0);
}

// Destroying a cluster voids everything it queued: the brokers' page-flush
// ticks, and the produce pipelines (leader append, replication hops,
// follower writes) of requests still in flight. These tests pass by running
// clean: ASan reports any queued work that still touches the cluster.
TEST_F(KafkaFixture, DestroyedIdleClusterRunsNothing) {
    auto kafka = makeCluster();
    kafka->createTopic("t", 4);
    exec.runFor(sim::msec(50));  // page-flush ticks pending
    kafka.reset();
    exec.runFor(sim::sec(1));
}

// The in-flight cases destroy the cluster at several points of a 50-send
// run: produce requests in the leader's CPU and append pipeline, in
// replication and the Pulsar broker pipeline (0.3-2 ms), and a Pulsar
// dispatch delivery (9 ms).
const sim::Duration kDestroyPoints[] = {sim::usec(300), sim::usec(400), sim::usec(600),
                                        sim::usec(800), sim::msec(2),   sim::msec(9)};

TEST_F(KafkaFixture, DestroyedClusterWithSendsInFlightRunsNothing) {
    // One more round stops the moment the first batch commits, while the
    // consumer's fetch response is on the leader's CPU.
    const size_t rounds = std::size(kDestroyPoints) + 1;
    size_t destroyedMidRun = 0;
    for (size_t round = 0; round < rounds; ++round) {
        auto kafka = makeCluster();
        kafka->createTopic("t", 4);
        auto consumer = kafka->makeConsumer(2, "t", 0, [](uint32_t, uint64_t, sim::Duration) {});
        auto producer = kafka->makeProducer(1, "t");
        for (int i = 0; i < 50; ++i) producer->send("key-" + std::to_string(i), 1024, {});
        producer->flush();
        if (round < std::size(kDestroyPoints)) {
            exec.runFor(kDestroyPoints[round]);
        } else {
            while (kafka->bytesProduced() == 0) exec.runFor(sim::usec(10));
        }
        destroyedMidRun += kafka->bytesProduced() < 50u * 1024;
        producer.reset();
        consumer.reset();
        kafka.reset();
        exec.runFor(sim::sec(1));
    }
    EXPECT_GE(destroyedMidRun, 5u);
}

struct PulsarFixture : public ::testing::Test {
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};
    sim::DiskModel::Config diskCfg;
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<wal::Bookie>> bookies;
    wal::LedgerRegistry registry;
    wal::LogMetadataStore logMeta;

    void makeBookies(int n, double slowFactor = 1.0) {
        for (int i = 0; i < n; ++i) {
            auto cfg = diskCfg;
            if (i == n - 1) cfg.bytesPerSec *= slowFactor;  // one laggard
            disks.push_back(std::make_unique<sim::DiskModel>(exec, cfg));
            bookies.push_back(std::make_unique<wal::Bookie>(exec, 100 + i, *disks.back(),
                                                            wal::Bookie::Config{}));
        }
    }
    wal::WalEnv env() {
        std::vector<wal::Bookie*> ptrs;
        for (auto& b : bookies) ptrs.push_back(b.get());
        return wal::WalEnv{exec, net, registry, logMeta, ptrs};
    }
};

TEST_F(PulsarFixture, ProduceConsumeRoundTrip) {
    makeBookies(3);
    PulsarCluster pulsar(exec, net, 600, env(), nullptr, PulsarConfig{});
    pulsar.createTopic("t", 2);
    uint32_t got = 0;
    std::vector<std::unique_ptr<PulsarConsumer>> consumers;
    for (int p = 0; p < 2; ++p) {
        consumers.push_back(pulsar.makeConsumer(2, "t", p, false,
                                                [&](uint32_t events, uint64_t, sim::Duration) {
                                                    got += events;
                                                }));
    }
    auto producer = pulsar.makeProducer(1, "t");
    int acked = 0;
    for (int i = 0; i < 100; ++i) {
        producer->send("key-" + std::to_string(i % 5), 100,
                       [&](Status s) { acked += s.isOk(); });
    }
    producer->flush();
    exec.runFor(sim::sec(1));
    EXPECT_EQ(acked, 100);
    EXPECT_EQ(got, 100u);
}

TEST_F(PulsarFixture, DispatchIntervalSetsLatencyFloor) {
    makeBookies(3);
    PulsarConfig cfg;
    cfg.dispatchInterval = sim::msec(6);
    PulsarCluster pulsar(exec, net, 600, env(), nullptr, cfg);
    pulsar.createTopic("t", 1);
    sim::Duration best = sim::sec(100);
    auto consumer = pulsar.makeConsumer(2, "t", 0, false,
                                        [&](uint32_t, uint64_t, sim::Duration e2e) {
                                            best = std::min(best, e2e);
                                        });
    auto producer = pulsar.makeProducer(1, "t");
    for (int i = 0; i < 20; ++i) {
        producer->send("", 100, {});
        producer->flush();
        exec.runFor(sim::msec(50));
    }
    // Even at trivial load, e2e latency cannot beat the batching+dispatch
    // pipeline (§5.5: Pulsar's ~12 ms floor).
    EXPECT_GT(best, sim::msec(2));
}

TEST_F(PulsarFixture, NoBatchingLowersLatency) {
    makeBookies(3);
    auto measureAck = [&](bool batching) {
        PulsarConfig cfg;
        cfg.batchingEnabled = batching;
        sim::Machine e2;
        sim::Network n2{e2, sim::Link::Config{}};
        // fresh bookies per run
        sim::DiskModel::Config dcfg;
        std::vector<std::unique_ptr<sim::DiskModel>> ds;
        std::vector<std::unique_ptr<wal::Bookie>> bs;
        for (int i = 0; i < 3; ++i) {
            ds.push_back(std::make_unique<sim::DiskModel>(e2, dcfg));
            bs.push_back(std::make_unique<wal::Bookie>(e2, 100 + i, *ds.back(),
                                                       wal::Bookie::Config{}));
        }
        wal::LedgerRegistry reg;
        wal::LogMetadataStore meta;
        std::vector<wal::Bookie*> ptrs;
        for (auto& b : bs) ptrs.push_back(b.get());
        PulsarCluster pulsar(e2, n2, 600, wal::WalEnv{e2, n2, reg, meta, ptrs}, nullptr, cfg);
        pulsar.createTopic("t", 1);
        auto producer = pulsar.makeProducer(1, "t");
        sim::TimePoint sent = e2.now();
        sim::Duration latency = 0;
        producer->send("", 100, [&](Status) { latency = e2.now() - sent; });
        e2.runFor(sim::sec(1));
        return latency;
    };
    sim::Duration noBatch = measureAck(false);
    sim::Duration withBatch = measureAck(true);
    EXPECT_GT(noBatch, 0);
    EXPECT_LT(noBatch, withBatch);  // batch timer adds latency at low rate
}

TEST_F(PulsarFixture, BrokerOomWithLaggingBookieAndAckQuorumTwo) {
    // §5.6: with ackQ=2 < writeQ=3, a persistently slow bookie makes the
    // broker's re-replication buffer grow without bound → OOM crash.
    makeBookies(3, /*slowFactor=*/0.005);
    PulsarConfig cfg;
    cfg.brokerMemoryLimitBytes = 2 * 1024 * 1024;
    cfg.brokers = 1;
    PulsarCluster pulsar(exec, net, 600, env(), nullptr, cfg);
    pulsar.createTopic("t", 4);
    auto producer = pulsar.makeProducer(1, "t");
    for (int round = 0; round < 400 && !pulsar.crashed(); ++round) {
        for (int i = 0; i < 128; ++i) producer->send("", 4096, {});
        producer->flush();
        exec.runFor(sim::msec(10));
    }
    EXPECT_TRUE(pulsar.crashed());
}

TEST_F(PulsarFixture, AckQuorumThreeAvoidsOom) {
    // The paper's "favorable" configuration: ackQ=3 flow-controls
    // producers at the slowest bookie instead of buffering.
    makeBookies(3, /*slowFactor=*/0.02);
    PulsarConfig cfg;
    cfg.brokerMemoryLimitBytes = 2 * 1024 * 1024;
    cfg.brokers = 1;
    cfg.repl.ackQuorum = 3;
    cfg.maxPendingBytesPerPartition = 256 * 1024;
    PulsarCluster pulsar(exec, net, 600, env(), nullptr, cfg);
    pulsar.createTopic("t", 4);
    auto producer = pulsar.makeProducer(1, "t");
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 64; ++i) producer->send("", 4096, {});
        producer->flush();
        exec.runFor(sim::msec(20));
    }
    EXPECT_FALSE(pulsar.crashed());
}

TEST_F(PulsarFixture, OffloaderMovesDataWithoutThrottling) {
    makeBookies(3);
    sim::ObjectStoreModel::Config ltsCfg;
    ltsCfg.perStreamBytesPerSec = 512 * 1024;  // slow LTS
    ltsCfg.aggregateBytesPerSec = 512 * 1024;
    sim::ObjectStoreModel lts(exec, ltsCfg);
    PulsarConfig cfg;
    cfg.offloadEnabled = true;
    cfg.ledgerRolloverBytes = 256 * 1024;
    PulsarCluster pulsar(exec, net, 600, env(), &lts, cfg);
    pulsar.createTopic("t", 1);
    auto producer = pulsar.makeProducer(1, "t");

    // Produce 4 MB quickly: ingestion is NOT slowed by the 0.5 MB/s LTS
    // (no throttling, §5.7) so a backlog of unoffloaded data builds up.
    int acked = 0;
    sim::TimePoint ackDone = 0;
    for (int i = 0; i < 1024; ++i) {
        producer->send("", 4096, [&](Status s) {
            if (s.isOk() && ++acked == 1024) ackDone = exec.now();
        });
    }
    producer->flush();
    exec.runFor(sim::sec(2));
    EXPECT_EQ(acked, 1024);
    EXPECT_LT(ackDone, sim::sec(2));             // ingest fast
    EXPECT_LT(pulsar.offloadedBytes(), 4ULL << 20);  // offload lags

    exec.runFor(sim::sec(20));
    EXPECT_GT(pulsar.offloadedBytes(), 2ULL << 20);  // but catches up later
}

// As for Kafka: a destroyed cluster's dispatch ticks, produce pipelines and
// dispatch deliveries must run nothing.
TEST_F(PulsarFixture, DestroyedIdleClusterRunsNothing) {
    makeBookies(3);
    auto pulsar =
        std::make_unique<PulsarCluster>(exec, net, 600, env(), nullptr, PulsarConfig{});
    pulsar->createTopic("t", 4);
    exec.runFor(sim::msec(50));  // dispatch ticks pending
    pulsar.reset();
    exec.runFor(sim::sec(1));
}

TEST_F(PulsarFixture, DestroyedClusterWithSendsInFlightRunsNothing) {
    makeBookies(3);
    size_t destroyedMidRun = 0;
    for (sim::Duration at : kDestroyPoints) {
        auto pulsar =
            std::make_unique<PulsarCluster>(exec, net, 600, env(), nullptr, PulsarConfig{});
        pulsar->createTopic("t", 4);
        std::vector<std::unique_ptr<PulsarConsumer>> consumers;
        for (int p = 0; p < 4; ++p) {
            consumers.push_back(pulsar->makeConsumer(2, "t", p, false,
                                                     [](uint32_t, uint64_t, sim::Duration) {}));
        }
        auto producer = pulsar->makeProducer(1, "t");
        for (int i = 0; i < 50; ++i) producer->send("key-" + std::to_string(i), 1024, {});
        producer->flush();
        exec.runFor(at);
        destroyedMidRun += pulsar->bytesProduced() < 50u * 1024;
        producer.reset();
        consumers.clear();
        pulsar.reset();
        exec.runFor(sim::sec(1));
    }
    EXPECT_GE(destroyedMidRun, 4u);
}

}  // namespace
}  // namespace pravega::baselines
