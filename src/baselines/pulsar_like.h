// Pulsar-like baseline (§5, "Apache Pulsar 2.6" comparisons).
//
// Models the design properties the paper attributes Pulsar's behaviour to,
// over the same simulated bookies as Pravega:
//   - brokers in front of BookKeeper (an extra network hop on the write
//     and read path);
//   - one managed ledger PER PARTITION (no cross-partition multiplexing at
//     the broker; only the bookie journal aggregates);
//   - client-side batching only, chosen up front: batching (size/time) or
//     per-event sends — the §5.3 trade-off;
//   - ackQuorum < writeQuorum leaves a re-replication buffer on the broker
//     that grows without bound when one bookie lags; the broker "crashes"
//     (OOM) past a memory limit — §5.6's instability. The "favorable"
//     configuration (ackQ = writeQ = 3) trades throughput for safety;
//   - tiered storage as an add-on: ledgers are offloaded to object storage
//     after rollover, outside the write path (no writer throttling, §5.7),
//     and catch-up reads fetch offloaded data in small, unpipelined blocks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/lifetime.h"
#include "sim/models.h"
#include "sim/network.h"
#include "sim/timer.h"
#include "wal/ledger_handle.h"
#include "wal/log_client.h"

namespace pravega::baselines {

using MessageAck2 = std::function<void(Status)>;

struct PulsarConfig {
    int brokers = 3;
    wal::ReplicationConfig repl;  // default e3/wq3/aq2 (Table 1)

    // Producer batching (§5.1: 128KB / 1ms when enabled).
    bool batchingEnabled = true;
    uint64_t batchBytes = 128 * 1024;
    sim::Duration batchTime = sim::msec(1);
    uint64_t maxPendingBytesPerPartition = 4 * 1024 * 1024;

    /// Broker → consumer dispatcher flush cadence (dominates Pulsar's
    /// end-to-end latency floor, §5.5).
    sim::Duration dispatchInterval = sim::msec(4);
    /// Extra dispatch passes when routing keys require key-ordered
    /// delivery (§5.5's 3.25x read-latency effect).
    int keyOrderedDispatchPasses = 3;
    /// The broker dispatcher is single-threaded: each delivery costs this
    /// much serialized work. With many partitions each delivery carries
    /// few events, so per-event efficiency collapses (Fig 8b's 76% read
    /// throughput drop at 16 partitions).
    sim::Duration dispatchCost = sim::msec(1);

    /// Broker memory limit; exceeding it crashes the broker (§5.6).
    uint64_t brokerMemoryLimitBytes = 512ULL * 1024 * 1024;

    /// Per-partition managed-ledger pipeline on the broker (Fig 7a: ~300
    /// MB/s single-partition ceiling for Pulsar).
    double partitionBytesPerSec = 300.0 * 1024 * 1024;
    sim::Duration partitionPerRequest = sim::usec(20);

    /// Managed-ledger / netty pipeline latency per produce (not occupancy —
    /// requests overlap). Calibrated to the paper's Fig 6a/8a observation
    /// that Pulsar's write and e2e latencies sit well above Pravega's.
    sim::Duration brokerPipelineLatency = sim::msec(2);

    // Tiered storage add-on (§5.7).
    bool offloadEnabled = false;
    uint64_t ledgerRolloverBytes = 64ULL * 1024 * 1024;
    /// Catch-up reads from offloaded storage use small unpipelined blocks.
    uint64_t offloadReadBlockBytes = 48 * 1024;

    uint64_t wireOverheadBytes = 64;
    sim::CpuModel::Config cpu;
};

class PulsarCluster;

class PulsarProducer {
public:
    PulsarProducer(PulsarCluster& cluster, sim::HostId clientHost, std::string topic,
                   uint64_t seed);

    /// `key` empty → round-robin partitioning; with a key, hash
    /// partitioning (per-key order).
    void send(std::string_view key, uint32_t sizeBytes, MessageAck2 ack);
    void flush();

private:
    friend class PulsarCluster;
    struct Batch {
        int partition = 0;
        uint64_t bytes = 0;
        uint32_t events = 0;
        bool withKeys = false;
        sim::TimePoint openedAt = 0;
        std::vector<MessageAck2> acks;
    };

    void closeBatch(int partition);
    void trySend(int partition);

    PulsarCluster& cluster_;
    sim::HostId clientHost_;
    std::string topic_;
    std::map<int, Batch> open_;
    std::map<int, std::deque<Batch>> queued_;    // partition → ready batches
    std::map<int, uint64_t> outstanding_;        // partition → in-flight bytes
    std::map<int, sim::Timer> timers_;           // partition → batch time
    int rrPartition_ = 0;
    uint64_t rngState_;
    sim::Lifetime life_;  // request round trips
};

class PulsarConsumer {
public:
    using Delivery = std::function<void(uint32_t events, uint64_t bytes, sim::Duration e2e)>;

    /// `fromEarliest` starts at the partition head (catch-up / historical
    /// reads, §5.7); otherwise tail consumption.
    PulsarConsumer(PulsarCluster& cluster, sim::HostId clientHost, std::string topic,
                   int partition, bool fromEarliest, Delivery onDelivery);

private:
    friend class PulsarCluster;
    void catchUpLoop();

    PulsarCluster& cluster_;
    sim::HostId clientHost_;
    std::string topic_;
    int partition_;
    Delivery onDelivery_;
    int64_t offset_ = 0;
    bool catchingUp_ = false;
    sim::Lifetime life_;
};

class PulsarCluster {
public:
    PulsarCluster(sim::Core& exec, sim::Network& net, sim::HostId firstBrokerHost,
                  wal::WalEnv walEnv, sim::ObjectStoreModel* offloadStore, PulsarConfig cfg);

    void createTopic(const std::string& name, int partitions);

    std::unique_ptr<PulsarProducer> makeProducer(sim::HostId clientHost,
                                                 const std::string& topic);
    std::unique_ptr<PulsarConsumer> makeConsumer(sim::HostId clientHost,
                                                 const std::string& topic, int partition,
                                                 bool fromEarliest,
                                                 PulsarConsumer::Delivery onDelivery);

    bool crashed() const { return crashed_; }
    uint64_t bytesProduced() const { return bytesProduced_; }
    uint64_t offloadedBytes() const { return offloadedBytes_; }
    uint64_t brokerMemoryBytes(int broker) const;
    const PulsarConfig& config() const { return cfg_; }

private:
    friend class PulsarProducer;
    friend class PulsarConsumer;

    struct BatchRecord {
        int64_t endOffset;
        uint32_t events;
        uint64_t bytes;
        sim::TimePoint producedAt;
        bool withKeys;
    };
    struct Partition {
        int broker = 0;
        std::unique_ptr<wal::LedgerHandle> ledger;
        std::unique_ptr<sim::QueuedResource> appendPipe;
        int64_t length = 0;
        int64_t offloadedUpTo = 0;   // LTS holds [0, offloadedUpTo)
        uint64_t sinceRollover = 0;
        std::deque<BatchRecord> records;            // awaiting dispatch/consume
        std::vector<sim::Core::Task> waiters;  // tail consumers
        bool hasConsumer = false;
        int64_t consumerOffset = 0;
    };
    struct Broker {
        sim::HostId host;
        std::unique_ptr<sim::CpuModel> cpu;
        std::unique_ptr<sim::QueuedResource> dispatcher;  // single-threaded
        std::unique_ptr<sim::Timer> dispatchTimer;
        bool crashed = false;
    };
    struct Topic {
        std::vector<Partition> partitions;
    };

    void produce(const std::string& topic, int partition, uint64_t bytes, uint32_t events,
                 bool withKeys, sim::TimePoint producedAt, std::function<void(Status)> done);
    void wakeConsumers(int brokerId);
    void checkMemory(int brokerId);
    void maybeOffload(const std::string& topic, int partition);
    Partition* find(const std::string& topic, int partition);

    sim::Core& exec_;
    sim::Network& net_;
    wal::WalEnv walEnv_;
    sim::ObjectStoreModel* offloadStore_;
    PulsarConfig cfg_;
    std::vector<Broker> brokers_;
    std::map<std::string, Topic> topics_;
    SharedBuf zeros_;  // shared payload storage for size-only modeling
    bool crashed_ = false;
    uint64_t memoryCheckTick_ = 0;
    uint64_t bytesProduced_ = 0;
    uint64_t offloadedBytes_ = 0;
    uint64_t nextLog_ = 0x50AA0000;
    /// Seeds this cluster's producers: the same config makes the same run.
    uint64_t producerSeed_ = 0x9E37;
    sim::Lifetime life_;  // produce pipelines, offloads and dispatch deliveries
};

}  // namespace pravega::baselines
