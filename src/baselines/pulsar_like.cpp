#include "baselines/pulsar_like.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/logging.h"

namespace pravega::baselines {

namespace {
constexpr const char* kLog = "pulsar-like";
}

// --------------------------------------------------------------- cluster

PulsarCluster::PulsarCluster(sim::Core& exec, sim::Network& net,
                             sim::HostId firstBrokerHost, wal::WalEnv walEnv,
                             sim::ObjectStoreModel* offloadStore, PulsarConfig cfg)
    : exec_(exec),
      net_(net),
      walEnv_(std::move(walEnv)),
      offloadStore_(offloadStore),
      cfg_(cfg),
      zeros_(Bytes(1024 * 1024, 0)) {
    for (int b = 0; b < cfg_.brokers; ++b) {
        Broker broker;
        broker.host = firstBrokerHost + b;
        broker.cpu = std::make_unique<sim::CpuModel>(exec_, cfg_.cpu);
        broker.dispatcher = std::make_unique<sim::QueuedResource>(exec_, 1);
        broker.dispatchTimer =
            std::make_unique<sim::Timer>(exec_, [this, b]() { wakeConsumers(b); });
        broker.dispatchTimer->every(cfg_.dispatchInterval);
        brokers_.push_back(std::move(broker));
    }
}

void PulsarCluster::createTopic(const std::string& name, int partitions) {
    Topic topic;
    for (int p = 0; p < partitions; ++p) {
        Partition part;
        part.broker = p % cfg_.brokers;
        // One managed ledger per partition: its own BK ledger (ensemble
        // rotated across bookies), no cross-partition aggregation above
        // the bookie journal.
        std::vector<wal::Bookie*> ensemble;
        size_t n = walEnv_.bookies.size();
        size_t start = (nextLog_ + static_cast<uint64_t>(p)) % n;
        for (int i = 0; i < cfg_.repl.ensembleSize; ++i) {
            ensemble.push_back(walEnv_.bookies[(start + static_cast<size_t>(i)) % n]);
        }
        wal::LedgerId id = walEnv_.registry.create(std::move(ensemble));
        part.ledger = std::make_unique<wal::LedgerHandle>(
            exec_, net_, brokers_[static_cast<size_t>(part.broker)].host, walEnv_.registry, id,
            cfg_.repl);
        part.appendPipe = std::make_unique<sim::QueuedResource>(exec_, 1);
        topic.partitions.push_back(std::move(part));
    }
    ++nextLog_;
    topics_[name] = std::move(topic);
}

PulsarCluster::Partition* PulsarCluster::find(const std::string& topic, int partition) {
    auto it = topics_.find(topic);
    if (it == topics_.end()) return nullptr;
    if (partition < 0 || partition >= static_cast<int>(it->second.partitions.size())) {
        return nullptr;
    }
    return &it->second.partitions[static_cast<size_t>(partition)];
}

uint64_t PulsarCluster::brokerMemoryBytes(int broker) const {
    uint64_t total = 0;
    for (const auto& [name, topic] : topics_) {
        for (const auto& part : topic.partitions) {
            if (part.broker != broker) continue;
            total += part.ledger->unackedBytes() + part.ledger->unackedToFullQuorumBytes();
        }
    }
    return total;
}

void PulsarCluster::checkMemory(int brokerId) {
    if (brokers_[static_cast<size_t>(brokerId)].crashed) return;
    // Scanning every partition's ledger is O(partitions); sample the check
    // so the hot path stays cheap at thousands of partitions.
    if ((++memoryCheckTick_ & 0xFF) != 0) return;
    if (brokerMemoryBytes(brokerId) > cfg_.brokerMemoryLimitBytes) {
        brokers_[static_cast<size_t>(brokerId)].crashed = true;
        crashed_ = true;
        PLOG_WARN(kLog, "broker %d ran out of memory (re-replication backlog)", brokerId);
    }
}

void PulsarCluster::produce(const std::string& topic, int partition, uint64_t bytes,
                            uint32_t events, bool withKeys, sim::TimePoint producedAt,
                            std::function<void(Status)> done) {
    Partition* part = find(topic, partition);
    if (!part) {
        done(Status(Err::NotFound, "no such topic-partition"));
        return;
    }
    Broker& broker = brokers_[static_cast<size_t>(part->broker)];
    if (broker.crashed) {
        done(Status(Err::IoError, "broker crashed (OOM)"));
        return;
    }
    sim::Duration pipeWork =
        cfg_.partitionPerRequest + sim::transferTime(bytes, cfg_.partitionBytesPerSec);
    auto append = life_.guard([this, topic, partition, bytes, events, withKeys, producedAt,
                               done, part]() {
        part->ledger->addEntry(zeros_.slice(0, bytes))
            .onComplete(life_.guard([this, topic, partition, bytes, events, withKeys,
                                     producedAt, done, part](const Result<wal::EntryId>& r) {
                checkMemory(part->broker);
                if (!r.isOk()) {
                    done(r.status());
                    return;
                }
                bytesProduced_ += bytes;
                part->length += static_cast<int64_t>(bytes);
                part->sinceRollover += bytes;
                part->records.push_back(
                    BatchRecord{part->length, events, bytes, producedAt, withKeys});
                if (!part->hasConsumer && part->records.size() > 4) part->records.pop_front();
                maybeOffload(topic, partition);
                // Consumers are NOT woken here: delivery waits for the
                // dispatcher tick, which sets Pulsar's e2e latency floor.
                done(Status::ok());
            }));
    });
    broker.cpu->execute(bytes).onComplete(
        life_.guard([this, part, pipeWork, append](const Result<sim::Unit>&) {
            part->appendPipe->acquire(pipeWork).onComplete(
                life_.guard([this, append](const Result<sim::Unit>&) {
                    exec_.schedule(cfg_.brokerPipelineLatency, append);
                }));
        }));
}

void PulsarCluster::maybeOffload(const std::string& topic, int partition) {
    if (!cfg_.offloadEnabled || !offloadStore_) return;
    Partition* part = find(topic, partition);
    if (!part || part->sinceRollover < cfg_.ledgerRolloverBytes) return;
    uint64_t chunk = cfg_.ledgerRolloverBytes;
    part->sinceRollover -= chunk;
    // The offloader runs OUTSIDE the write path: no producer throttling;
    // if the object store is slower than ingest the backlog just grows
    // (the §5.7 imbalance).
    offloadStore_->put(chunk).onComplete(
        life_.guard([this, topic, partition, chunk](const Result<sim::Unit>&) {
            Partition* p = find(topic, partition);
            if (!p) return;
            p->offloadedUpTo += static_cast<int64_t>(chunk);
            offloadedBytes_ += chunk;
        }));
}

void PulsarCluster::wakeConsumers(int brokerId) {
    if (brokers_[static_cast<size_t>(brokerId)].crashed) return;
    for (auto& [name, topic] : topics_) {
        for (auto& part : topic.partitions) {
            if (part.broker != brokerId || !part.hasConsumer) continue;
            if (part.records.empty() || part.records.back().endOffset <= part.consumerOffset) {
                continue;
            }
            auto waiters = std::move(part.waiters);
            part.waiters.clear();
            for (auto& w : waiters) w();
        }
    }
}

// -------------------------------------------------------------- producer

PulsarProducer::PulsarProducer(PulsarCluster& cluster, sim::HostId clientHost,
                               std::string topic, uint64_t seed)
    : cluster_(cluster), clientHost_(clientHost), topic_(std::move(topic)),
      rngState_(seed | 1) {}

void PulsarProducer::send(std::string_view key, uint32_t sizeBytes, MessageAck2 ack) {
    auto* topic = &cluster_.topics_.at(topic_);
    int numPartitions = static_cast<int>(topic->partitions.size());

    int partition;
    bool withKey = !key.empty();
    if (withKey) {
        partition = static_cast<int>(fnv1a64(key) % numPartitions);
    } else {
        partition = rrPartition_;  // rotates when the batch closes
    }

    auto& batch = open_[partition];
    if (batch.events == 0) {
        batch.partition = partition;
        batch.openedAt = cluster_.exec_.now();
        if (cluster_.cfg_.batchingEnabled) {
            auto timer = timers_.try_emplace(partition, cluster_.exec_,
                                             [this, partition]() { closeBatch(partition); });
            timer.first->second.arm(cluster_.cfg_.batchTime);
        }
    }
    batch.bytes += sizeBytes;
    ++batch.events;
    batch.withKeys = batch.withKeys || withKey;
    if (ack) batch.acks.push_back(std::move(ack));

    if (!cluster_.cfg_.batchingEnabled || batch.bytes >= cluster_.cfg_.batchBytes) {
        if (!withKey) {
            rngState_ = mix64(rngState_);
            rrPartition_ = static_cast<int>(rngState_ % numPartitions);
        }
        closeBatch(partition);
    }
}

void PulsarProducer::closeBatch(int partition) {
    auto it = open_.find(partition);
    if (it == open_.end() || it->second.events == 0) return;
    if (auto timer = timers_.find(partition); timer != timers_.end()) timer->second.cancel();
    queued_[partition].push_back(std::move(it->second));
    open_.erase(it);
    trySend(partition);
}

void PulsarProducer::trySend(int partition) {
    auto& queue = queued_[partition];
    while (!queue.empty() &&
           outstanding_[partition] < cluster_.cfg_.maxPendingBytesPerPartition) {
        auto batch = std::make_shared<Batch>(std::move(queue.front()));
        queue.pop_front();
        outstanding_[partition] += batch->bytes;

        auto* part = cluster_.find(topic_, partition);
        if (!part) {
            for (auto& a : batch->acks) a(Status(Err::NotFound, "partition gone"));
            continue;
        }
        sim::HostId brokerHost =
            cluster_.brokers_[static_cast<size_t>(part->broker)].host;
        uint64_t wire = batch->bytes + cluster_.cfg_.wireOverheadBytes;
        cluster_.net_.send(clientHost_, brokerHost, wire,
                           life_.guard([this, batch, partition, brokerHost]() {
            cluster_.produce(
                topic_, partition, batch->bytes, batch->events, batch->withKeys,
                batch->openedAt,
                life_.guard([this, batch, partition, brokerHost](Status s) {
                    cluster_.net_.send(brokerHost, clientHost_,
                                       cluster_.cfg_.wireOverheadBytes,
                                       life_.guard([this, batch, partition, s]() {
                                           outstanding_[partition] -= std::min(
                                               outstanding_[partition], batch->bytes);
                                           for (auto& a : batch->acks) a(s);
                                           trySend(partition);
                                       }));
                }));
        }));
    }
}

void PulsarProducer::flush() {
    std::vector<int> partitions;
    for (auto& [p, b] : open_) partitions.push_back(p);
    for (int p : partitions) closeBatch(p);
}

// -------------------------------------------------------------- consumer

PulsarConsumer::PulsarConsumer(PulsarCluster& cluster, sim::HostId clientHost,
                               std::string topic, int partition, bool fromEarliest,
                               Delivery onDelivery)
    : cluster_(cluster),
      clientHost_(clientHost),
      topic_(std::move(topic)),
      partition_(partition),
      onDelivery_(std::move(onDelivery)) {
    auto* part = cluster_.find(topic_, partition_);
    if (part) {
        part->hasConsumer = true;
        offset_ = fromEarliest ? 0 : part->length;
        part->consumerOffset = offset_;
        catchingUp_ = fromEarliest;
    }
    catchUpLoop();
}

void PulsarConsumer::catchUpLoop() {
    auto* part = cluster_.find(topic_, partition_);
    if (!part) return;
    auto& broker = cluster_.brokers_[static_cast<size_t>(part->broker)];
    sim::HostId brokerHost = broker.host;

    if (offset_ < part->offloadedUpTo && cluster_.offloadStore_) {
        // Historical read from offloaded storage: small block, one
        // outstanding request, index + entry lookups per block (§5.7's
        // "no configuration achieved read > write throughput").
        uint64_t block = std::min<uint64_t>(cluster_.cfg_.offloadReadBlockBytes,
                                            static_cast<uint64_t>(part->offloadedUpTo - offset_));
        cluster_.offloadStore_->get(block).onComplete(life_.guard([this, block, brokerHost,
                                                       part](const Result<sim::Unit>&) {
            auto deliver = life_.guard([this, block]() {
                offset_ += static_cast<int64_t>(block);
                auto* p = cluster_.find(topic_, partition_);
                if (p) p->consumerOffset = offset_;
                onDelivery_(0, block, 0);
                catchUpLoop();
            });
            auto& b = cluster_.brokers_[static_cast<size_t>(part->broker)];
            b.cpu->execute(block).onComplete(
                cluster_.life_.guard([deliver, block, brokerHost, &cluster = cluster_,
                                      host = clientHost_](const Result<sim::Unit>&) {
                    cluster.net_.send(brokerHost, host,
                                      block + cluster.cfg_.wireOverheadBytes, deliver);
                }));
        }));
        return;
    }

    if (offset_ < part->length) {
        // Read from BookKeeper / broker cache (fast path). Tail records
        // carry produce timestamps for e2e latency; a keyed record is held
        // back until key-ordered dispatch has made its passes (§5.5). Only
        // that hold is modelled, not the passes' CPU.
        uint64_t bytes = 0;
        uint32_t events = 0;
        sim::TimePoint oldest = cluster_.exec_.now();
        int64_t newOffset = offset_;
        sim::Duration hold = 0;
        for (const auto& rec : part->records) {
            if (rec.endOffset <= offset_) continue;
            if (rec.withKeys) {
                hold = cluster_.cfg_.dispatchInterval *
                       (cluster_.cfg_.keyOrderedDispatchPasses - 1);
                if (rec.producedAt + hold > cluster_.exec_.now()) break;
            }
            bytes += rec.bytes;
            events += rec.events;
            oldest = std::min(oldest, rec.producedAt);
            newOffset = rec.endOffset;
        }
        if (bytes == 0) {
            // Key-ordered hold: try again next dispatch tick.
            part->waiters.push_back(life_.guard([this]() { catchUpLoop(); }));
            return;
        }
        if (newOffset == part->length && offset_ == 0 && part->offloadedUpTo == 0 &&
            catchingUp_) {
            catchingUp_ = false;
        }
        offset_ = newOffset;
        part->consumerOffset = offset_;
        while (!part->records.empty() && part->records.front().endOffset <= offset_) {
            part->records.pop_front();
        }
        // Routing keys change the dispatch LATENCY (the hold above), not
        // throughput (§5.5); the single-threaded dispatcher charges per
        // delivery regardless.
        auto deliver = life_.guard([this, bytes, events, oldest]() {
            onDelivery_(events, bytes, cluster_.exec_.now() - oldest);
            catchUpLoop();
        });
        broker.dispatcher
            ->acquire(cluster_.cfg_.dispatchCost + sim::transferTime(bytes, 4.0e9))
            .onComplete(cluster_.life_.guard([deliver, bytes, brokerHost, &cluster = cluster_,
                                              host = clientHost_](const Result<sim::Unit>&) {
                cluster.net_.send(brokerHost, host, bytes + cluster.cfg_.wireOverheadBytes,
                                  deliver);
            }));
        return;
    }

    // At the tail: wait for the dispatcher to wake us.
    part->waiters.push_back(life_.guard([this]() { catchUpLoop(); }));
}

std::unique_ptr<PulsarProducer> PulsarCluster::makeProducer(sim::HostId clientHost,
                                                            const std::string& topic) {
    return std::make_unique<PulsarProducer>(*this, clientHost, topic, mix64(++producerSeed_));
}

std::unique_ptr<PulsarConsumer> PulsarCluster::makeConsumer(sim::HostId clientHost,
                                                            const std::string& topic,
                                                            int partition, bool fromEarliest,
                                                            PulsarConsumer::Delivery onDelivery) {
    return std::make_unique<PulsarConsumer>(*this, clientHost, topic, partition, fromEarliest,
                                            std::move(onDelivery));
}

}  // namespace pravega::baselines
