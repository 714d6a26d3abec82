// System adapters: build a fresh simulated deployment of Pravega, the
// Kafka-like baseline, or the Pulsar-like baseline — mirroring the paper's
// Table 1 — and expose uniform producer handles plus an end-to-end latency
// histogram fed by consumers. Every sweep point uses a fresh world so
// measurements are independent and memory is bounded.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/kafka_like.h"
#include "baselines/pulsar_like.h"
#include "bench/harness/workload.h"
#include "client/event_reader.h"
#include "cluster/pravega_cluster.h"
#include "sim/lifetime.h"

namespace pravega::bench {

/// Per-event client-stack CPU costs. OpenMessaging Benchmark drives one
/// client instance per producer thread; the client library's per-event work
/// is what caps a single producer's event rate (§5.2 reports ~1M e/s for
/// the Pravega writer and Kafka producer at 16 partitions, and lower
/// single-partition ceilings). These constants calibrate those ceilings.
struct ClientCosts {
    static constexpr sim::Duration kPravegaPerEvent = sim::Duration(800);   // ~1.25M e/s
    static constexpr sim::Duration kKafkaPerEvent = sim::Duration(950);     // ~1.05M e/s
    static constexpr sim::Duration kPulsarPerEvent = sim::Duration(1200);   // ~0.83M e/s
    /// Per-byte serialization/copy costs cap a single producer's BYTE rate
    /// (what dominates with 10KB events, §5.4: ~350/330/250 MB/s).
    static constexpr double kPravegaPerByteNs = 2.6;  // ~385 MB/s
    static constexpr double kKafkaPerByteNs = 2.9;    // ~345 MB/s
    static constexpr double kPulsarPerByteNs = 3.8;   // ~263 MB/s
    /// Consumer-side per-event costs (deserialize, callback): the read
    /// ceilings of Fig 8a — Pravega's ~72% and Pulsar's ~56% advantage
    /// over the Kafka consumer at one partition.
    static constexpr sim::Duration kPravegaReadPerEvent = sim::Duration(1300);  // ~770k e/s
    static constexpr sim::Duration kKafkaReadPerEvent = sim::Duration(2200);    // ~450k e/s
    static constexpr sim::Duration kPulsarReadPerEvent = sim::Duration(1400);   // ~710k e/s
};

// ------------------------------------------------------------- Pravega

struct PravegaOptions {
    int segments = 1;
    int numWriters = 1;
    int numReaders = 0;  // tail readers feeding the e2e histogram
    bool journalSync = true;                     // Fig 5 "no flush" ablation off
    cluster::LtsKind ltsKind = cluster::LtsKind::SimulatedObject;
    client::WriterConfig writer;
    /// Override for store/container knobs when needed.
    std::function<void(cluster::ClusterConfig&)> tweak;
};

/// Consumption counters: rate is measured over the interval the consumers
/// were actually busy (first..last delivery), so a saturated consumer's
/// ceiling is visible even when generation stopped earlier.
struct ConsumeStats {
    uint64_t events = 0;
    sim::TimePoint first = -1;
    sim::TimePoint last = 0;

    void add(uint64_t n, sim::TimePoint now) {
        if (first < 0) first = now;
        last = now;
        events += n;
    }
    double eventsPerSec() const {
        if (first < 0 || last <= first) return 0;
        return static_cast<double>(events) / sim::toSeconds(last - first);
    }
};

struct PravegaWorld {
    std::unique_ptr<cluster::PravegaCluster> cluster;
    std::vector<std::unique_ptr<client::EventWriter>> writers;
    std::shared_ptr<client::ReaderGroup> group;
    std::vector<std::unique_ptr<client::EventReader>> readers;
    std::vector<Producer> producers;
    obs::LatencyHistogram e2e;
    ConsumeStats consumed;

    sim::Machine& exec() { return cluster->machine(); }
    uint64_t drainedEvents = 0;
    sim::Lifetime life;  // declared last: voids reader pumps before teardown
};

std::unique_ptr<PravegaWorld> makePravega(const PravegaOptions& opt);

// --------------------------------------------------------------- Kafka

struct KafkaOptions {
    int partitions = 1;
    int numProducers = 1;
    int numConsumers = 0;  // one per partition when > 0
    bool flushEveryMessage = false;  // durability ablation (§5.2)
    uint64_t batchBytes = 128 * 1024;
    sim::Duration lingerTime = sim::msec(1);
};

struct KafkaWorld {
    std::unique_ptr<sim::Machine> execHolder = std::make_unique<sim::Machine>();
    std::unique_ptr<sim::Network> net;
    std::unique_ptr<baselines::KafkaCluster> cluster;
    std::vector<std::unique_ptr<baselines::KafkaProducer>> kproducers;
    std::vector<std::unique_ptr<baselines::KafkaConsumer>> kconsumers;
    std::vector<Producer> producers;
    obs::LatencyHistogram e2e;
    ConsumeStats consumed;

    sim::Machine& exec() { return *execHolder; }
};

std::unique_ptr<KafkaWorld> makeKafka(const KafkaOptions& opt);

// -------------------------------------------------------------- Pulsar

struct PulsarOptions {
    int partitions = 1;
    int numProducers = 1;
    int numConsumers = 0;
    bool batchingEnabled = true;
    int ackQuorum = 2;        // 3 = the paper's "favorable" config (§5.6)
    bool offloadEnabled = false;
    double bookieSkew = 1.0;  // <1: last bookie's drive is slower
    /// Broker OOM threshold (scaled to the bench window; see EXPERIMENTS.md).
    uint64_t brokerMemoryLimitBytes = 512ULL * 1024 * 1024;
};

struct PulsarWorld {
    std::unique_ptr<sim::Machine> execHolder = std::make_unique<sim::Machine>();
    std::unique_ptr<sim::Network> net;
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<wal::Bookie>> bookies;
    wal::LedgerRegistry registry;
    wal::LogMetadataStore logMeta;
    std::unique_ptr<sim::ObjectStoreModel> lts;
    std::unique_ptr<baselines::PulsarCluster> cluster;
    std::vector<std::unique_ptr<baselines::PulsarProducer>> pproducers;
    std::vector<std::unique_ptr<baselines::PulsarConsumer>> pconsumers;
    std::vector<Producer> producers;
    obs::LatencyHistogram e2e;
    ConsumeStats consumed;

    sim::Machine& exec() { return *execHolder; }
};

std::unique_ptr<PulsarWorld> makePulsar(const PulsarOptions& opt);

}  // namespace pravega::bench
