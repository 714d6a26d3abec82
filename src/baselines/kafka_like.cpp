#include "baselines/kafka_like.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/logging.h"

namespace pravega::baselines {

// ------------------------------------------------------------- cluster

KafkaCluster::KafkaCluster(sim::Core& exec, sim::Network& net, sim::HostId firstBrokerHost,
                           KafkaConfig cfg)
    : exec_(exec), net_(net), cfg_(cfg) {
    for (int b = 0; b < cfg_.brokers; ++b) {
        Broker broker;
        broker.host = firstBrokerHost + b;
        broker.cpu = std::make_unique<sim::CpuModel>(exec_, cfg_.cpu);
        broker.disk = std::make_unique<sim::DiskModel>(exec_, cfg_.disk);
        broker.pageFlush = std::make_unique<sim::Timer>(exec_, [this, b]() { flushPages(b); });
        broker.pageFlush->every(cfg_.pageFlushInterval);
        brokers_.push_back(std::move(broker));
    }
}

void KafkaCluster::createTopic(const std::string& name, int partitions) {
    Topic topic;
    for (int p = 0; p < partitions; ++p) {
        Partition part;
        part.leader = p % cfg_.brokers;
        for (int r = 1; r < cfg_.replicationFactor; ++r) {
            part.followers.push_back((part.leader + r) % cfg_.brokers);
        }
        part.appendPipe = std::make_unique<sim::QueuedResource>(exec_, 1);
        topic.partitions.push_back(std::move(part));
    }
    topics_[name] = std::move(topic);
}

KafkaCluster::Partition* KafkaCluster::find(const std::string& topic, int partition) {
    auto it = topics_.find(topic);
    if (it == topics_.end()) return nullptr;
    if (partition < 0 || partition >= static_cast<int>(it->second.partitions.size())) {
        return nullptr;
    }
    return &it->second.partitions[static_cast<size_t>(partition)];
}

uint64_t KafkaCluster::partitionFileId(const std::string& topic, int partition) const {
    return fnv1a64(topic) ^ mix64(static_cast<uint64_t>(partition) + 0x5EED);
}

void KafkaCluster::produce(const std::string& topic, int partition, uint64_t bytes,
                           uint32_t events, sim::TimePoint producedAt,
                           std::function<void(Status)> done) {
    Partition* part = find(topic, partition);
    if (!part) {
        done(Status(Err::NotFound, "no such topic-partition"));
        return;
    }
    Broker& leader = brokers_[static_cast<size_t>(part->leader)];
    uint64_t fileId = partitionFileId(topic, partition);

    // Durable write at one replica: fsync per produce batch when
    // flush.messages=1, page cache (deferred, aggregated) otherwise.
    auto writeAt = [this, fileId, bytes](int brokerId,
                                         const std::string& topicName,
                                         int part2) -> sim::Future<sim::Unit> {
        Broker& b = brokers_[static_cast<size_t>(brokerId)];
        if (cfg_.flushEveryMessage) {
            return b.disk->write(fileId, bytes, /*fsync=*/true);
        }
        // Page cache: the ack does not wait for the drive, but dirty pages
        // stall the produce path when the background flusher falls behind
        // (Linux dirty throttling).
        Partition* p = find(topicName, part2);
        if (p) p->dirtyByBroker[brokerId] += bytes;
        double backlogSec = sim::toSeconds(b.disk->backlog());
        if (backlogSec > cfg_.dirtyStallSeconds) {
            return b.disk->write(fileId, 0, false);  // queue behind the drive
        }
        return sim::Future<sim::Unit>::ready(sim::Unit{});
    };

    auto state = std::make_shared<int>(0);  // replicas durable
    auto maybeFinish = life_.guard([this, state, done, topic, partition, bytes, events,
                                    producedAt]() {
        if (*state != cfg_.minInsyncReplicas) return;
        ++*state;  // fire once
        Partition* part2 = find(topic, partition);
        if (!part2) {
            done(Status(Err::NotFound, "partition vanished"));
            return;
        }
        bytesProduced_ += bytes;
        part2->length += static_cast<int64_t>(bytes);
        part2->records.push_back(
            BatchRecord{part2->length, events, bytes, producedAt});
        // Bound memory when nobody consumes.
        if (!part2->hasConsumer && part2->records.size() > 4) {
            part2->records.pop_front();
        }
        auto waiters = std::move(part2->waiters);
        part2->waiters.clear();
        for (auto& w : waiters) w();
        done(Status::ok());
    });

    // Leader handles the request (CPU + the partition's single-threaded
    // append pipeline), writes locally, and replicates to followers in
    // parallel; ack when min.insync.replicas are durable.
    sim::Duration pipeWork =
        cfg_.partitionPerRequest + sim::transferTime(bytes, cfg_.partitionBytesPerSec);
    auto replicate = life_.guard([this, topic, partition, writeAt, state, maybeFinish,
                                  part](const Result<sim::Unit>&) {
        writeAt(part->leader, topic, partition)
            .onComplete([state, maybeFinish](const Result<sim::Unit>&) {
                ++*state;
                maybeFinish();
            });
        for (int follower : part->followers) {
            Broker& leaderB = brokers_[static_cast<size_t>(part->leader)];
            Broker& followerB = brokers_[static_cast<size_t>(follower)];
            uint64_t bytes2 = cfg_.wireOverheadBytes;
            net_.send(leaderB.host, followerB.host, bytes2,
                      life_.guard([this, follower, topic, partition, writeAt, state,
                                   maybeFinish, &leaderB, &followerB]() {
                          writeAt(follower, topic, partition)
                              .onComplete(life_.guard([this, state, maybeFinish, &leaderB,
                                                       &followerB](const Result<sim::Unit>&) {
                                  net_.send(followerB.host, leaderB.host,
                                            cfg_.wireOverheadBytes, [state, maybeFinish]() {
                                                ++*state;
                                                maybeFinish();
                                            });
                              }));
                      }));
        }
    });
    leader.cpu->execute(bytes).onComplete(
        life_.guard([part, pipeWork, replicate](const Result<sim::Unit>&) {
            part->appendPipe->acquire(pipeWork).onComplete(replicate);
        }));
}

void KafkaCluster::flushPages(int brokerId) {
    if (cfg_.flushEveryMessage) return;
    // The OS writes each partition's dirty pages as a separate (large)
    // write to that partition's file — this is where the one-file-per-
    // partition design pays at high partition counts.
    Broker& broker = brokers_[static_cast<size_t>(brokerId)];
    for (auto& [name, topic] : topics_) {
        for (size_t p = 0; p < topic.partitions.size(); ++p) {
            Partition& part = topic.partitions[p];
            auto it = part.dirtyByBroker.find(brokerId);
            if (it == part.dirtyByBroker.end() || it->second == 0) continue;
            broker.disk->write(partitionFileId(name, static_cast<int>(p)), it->second, false);
            it->second = 0;
        }
    }
}

// ------------------------------------------------------------- producer

KafkaProducer::KafkaProducer(KafkaCluster& cluster, sim::HostId clientHost, std::string topic,
                             uint64_t seed)
    : cluster_(cluster), clientHost_(clientHost), topic_(std::move(topic)), rngState_(seed | 1) {}

void KafkaProducer::send(std::string_view key, uint32_t sizeBytes, MessageAck ack) {
    auto* topic = &cluster_.topics_.at(topic_);
    int numPartitions = static_cast<int>(topic->partitions.size());

    int partition;
    if (key.empty()) {
        // Sticky partitioner: fill one partition's batch, then rotate —
        // this is why keyless Kafka batches so much better (§5.3, §5.5).
        partition = stickyPartition_;
        stickyBytes_ += sizeBytes;
        if (stickyBytes_ >= cluster_.cfg_.batchBytes) {
            stickyBytes_ = 0;
            rngState_ = mix64(rngState_);
            stickyPartition_ = static_cast<int>(rngState_ % numPartitions);
        }
    } else {
        partition = static_cast<int>(fnv1a64(key) % numPartitions);
    }

    if (pendingBytes_ > cluster_.cfg_.maxPendingBytes) {
        // buffer.memory exhausted → block (we model as drop-with-error so
        // open-loop benches observe saturation instead of infinite memory).
        if (ack) ack(Status(Err::Throttled, "producer buffer full"));
        return;
    }

    auto& batch = open_[partition];
    if (batch.events == 0) {
        batch.partition = partition;
        batch.openedAt = cluster_.exec_.now();
        auto linger = linger_.try_emplace(partition, cluster_.exec_,
                                          [this, partition]() { closeBatch(partition); });
        linger.first->second.arm(cluster_.cfg_.lingerTime);
    }
    batch.bytes += sizeBytes;
    ++batch.events;
    if (ack) batch.acks.push_back(std::move(ack));
    pendingBytes_ += sizeBytes;

    if (batch.bytes >= cluster_.cfg_.batchBytes) closeBatch(partition);
}

void KafkaProducer::closeBatch(int partition) {
    auto it = open_.find(partition);
    if (it == open_.end() || it->second.events == 0) return;
    linger_.at(partition).cancel();
    Batch batch = std::move(it->second);
    open_.erase(it);
    int leader = cluster_.topics_.at(topic_).partitions[static_cast<size_t>(partition)].leader;
    queued_[leader].push_back(std::move(batch));
    trySend(leader);
}

void KafkaProducer::trySend(int brokerId) {
    auto& queue = queued_[brokerId];
    while (!queue.empty() && inFlight_[brokerId] < cluster_.cfg_.maxInFlightPerBroker) {
        // One produce REQUEST carries every ready batch for this broker
        // (multi-partition requests, like the real protocol).
        auto request = std::make_shared<std::vector<Batch>>();
        uint64_t requestBytes = 0;
        while (!queue.empty() && (request->empty() ||
                                  requestBytes < cluster_.cfg_.maxRequestBytes)) {
            requestBytes += queue.front().bytes;
            request->push_back(std::move(queue.front()));
            queue.pop_front();
        }
        ++inFlight_[brokerId];
        uint64_t wire = requestBytes + cluster_.cfg_.wireOverheadBytes;
        sim::HostId brokerHost = cluster_.brokers_[static_cast<size_t>(brokerId)].host;
        cluster_.net_.send(clientHost_, brokerHost, wire,
                           life_.guard([this, request, requestBytes, brokerId, brokerHost]() {
            // All batches in the request are appended (to their partitions)
            // concurrently; the response returns when every one is done.
            auto remaining = std::make_shared<size_t>(request->size());
            auto worst = std::make_shared<Status>();
            for (auto& batch : *request) {
                cluster_.produce(
                    topic_, batch.partition, batch.bytes, batch.events, batch.openedAt,
                    life_.guard([this, request, requestBytes, brokerId, brokerHost, remaining,
                                 worst](Status s) {
                        if (!s.isOk()) *worst = s;
                        if (--*remaining > 0) return;
                        cluster_.net_.send(
                            brokerHost, clientHost_, cluster_.cfg_.wireOverheadBytes,
                            life_.guard([this, request, requestBytes, brokerId, worst]() {
                                --inFlight_[brokerId];
                                pendingBytes_ -= std::min(pendingBytes_, requestBytes);
                                for (auto& batch : *request) {
                                    for (auto& a : batch.acks) a(*worst);
                                }
                                trySend(brokerId);
                            }));
                    }));
            }
        }));
    }
}

void KafkaProducer::flush() {
    std::vector<int> partitions;
    partitions.reserve(open_.size());
    for (auto& [p, b] : open_) partitions.push_back(p);
    for (int p : partitions) closeBatch(p);
}

// ------------------------------------------------------------- consumer

KafkaConsumer::KafkaConsumer(KafkaCluster& cluster, sim::HostId clientHost, std::string topic,
                             int partition, Delivery onDelivery)
    : cluster_(cluster),
      clientHost_(clientHost),
      topic_(std::move(topic)),
      partition_(partition),
      onDelivery_(std::move(onDelivery)) {
    auto* part = cluster_.find(topic_, partition_);
    if (part) {
        part->hasConsumer = true;
        offset_ = part->length;  // tail consumption
    }
    fetchLoop();
}

void KafkaConsumer::fetchLoop() {
    auto* part = cluster_.find(topic_, partition_);
    if (!part) return;

    if (part->records.empty() || part->records.back().endOffset <= offset_) {
        // Long poll: wake when the next produce lands.
        part->waiters.push_back(life_.guard([this]() { fetchLoop(); }));
        return;
    }
    // Deliver all available batches in one fetch response.
    uint64_t bytes = 0;
    std::vector<KafkaCluster::BatchRecord> out;
    for (const auto& rec : part->records) {
        if (rec.endOffset > offset_) {
            out.push_back(rec);
            bytes += rec.bytes;
        }
    }
    offset_ = part->records.back().endOffset;
    // Trim consumed records.
    while (!part->records.empty() && part->records.front().endOffset <= offset_) {
        part->records.pop_front();
    }

    int leader = part->leader;
    sim::HostId brokerHost = cluster_.brokers_[static_cast<size_t>(leader)].host;
    auto& broker = cluster_.brokers_[static_cast<size_t>(leader)];
    auto deliver = life_.guard([this, out = std::move(out)]() {
        for (const auto& rec : out) {
            onDelivery_(rec.events, rec.bytes, cluster_.exec_.now() - rec.producedAt);
        }
        fetchLoop();
    });
    broker.cpu->execute(bytes).onComplete(
        cluster_.life_.guard([deliver, bytes, brokerHost, &cluster = cluster_,
                              host = clientHost_](const Result<sim::Unit>&) {
            cluster.net_.send(brokerHost, host, bytes + cluster.cfg_.wireOverheadBytes, deliver);
        }));
}

std::unique_ptr<KafkaProducer> KafkaCluster::makeProducer(sim::HostId clientHost,
                                                          const std::string& topic) {
    return std::make_unique<KafkaProducer>(*this, clientHost, topic, mix64(++producerSeed_));
}

std::unique_ptr<KafkaConsumer> KafkaCluster::makeConsumer(sim::HostId clientHost,
                                                          const std::string& topic,
                                                          int partition,
                                                          KafkaConsumer::Delivery onDelivery) {
    return std::make_unique<KafkaConsumer>(*this, clientHost, topic, partition,
                                           std::move(onDelivery));
}

}  // namespace pravega::baselines
