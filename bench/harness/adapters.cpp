#include "bench/harness/adapters.h"

#include <cstring>

#include "client/framing.h"

namespace pravega::bench {

namespace {

/// Serializes a producer's per-event client work: when the offered rate
/// exceeds 1/perEvent the client queue grows and latency explodes, which is
/// how single-producer ceilings appear in every OMB-style benchmark.
struct ClientStack {
    ClientStack(sim::Core& exec, sim::Duration perEvent, double perByteNs)
        : cpu(exec, 1), perEvent(perEvent), perByteNs(perByteNs) {}
    sim::QueuedResource cpu;
    sim::Duration perEvent;
    double perByteNs;
};

/// Wraps `inner` so each event first passes through the client stack.
SendFn throttleClient(std::shared_ptr<ClientStack> stack,
                      std::function<void(std::string key, uint32_t size,
                                         std::function<void(bool)> ack)> inner) {
    return [stack, inner = std::move(inner)](std::string_view key, uint32_t size,
                                             std::function<void(bool)> ack) {
        sim::Duration cost =
            stack->perEvent + static_cast<sim::Duration>(stack->perByteNs * size);
        stack->cpu.acquire(cost).onComplete(
            [inner, key = std::string(key), size,
             ack = std::move(ack)](const Result<sim::Unit>&) mutable {
                inner(std::move(key), size, std::move(ack));
            });
    };
}

/// Adapts the harness's `ack(ok)` to a client's status callback. No ack
/// stays no callback, so the client skips the completion altogether.
std::function<void(Status)> statusAck(std::function<void(bool)> ack) {
    if (!ack) return {};
    return [ack = std::move(ack)](Status s) { ack(s.isOk()); };
}

/// A Kafka or Pulsar producer behind its client stack.
template <typename BaselineProducer>
Producer baselineProducer(sim::Core& exec, BaselineProducer* producer, sim::Duration perEvent,
                          double perByteNs) {
    Producer p;
    p.send = throttleClient(std::make_shared<ClientStack>(exec, perEvent, perByteNs),
                            [producer](std::string key, uint32_t size,
                                       std::function<void(bool)> ack) {
                                producer->send(key, size, statusAck(std::move(ack)));
                            });
    p.flush = [producer]() { producer->flush(); };
    return p;
}

/// Builds an event payload of `size` bytes carrying the send timestamp in
/// its first 8 bytes (how Pravega readers compute end-to-end latency; the
/// baselines track produce timestamps internally).
Bytes stampedPayload(sim::TimePoint now, uint32_t size) {
    Bytes out(std::max<uint32_t>(size, 8), 0);
    std::memcpy(out.data(), &now, sizeof(now));
    return out;
}

void pumpReader(PravegaWorld* world, client::EventReader* reader,
                std::shared_ptr<ClientStack> stack) {
    reader->readNextEvent().onComplete(
        world->life.guard([world, reader, stack](const Result<client::EventRead>& r) {
            if (!r.isOk()) return;
            sim::TimePoint sentAt = 0;
            if (r.value().payload.size() >= 8) {
                std::memcpy(&sentAt, r.value().payload.data(), sizeof(sentAt));
            }
            // The reader's per-event client work gates consumption.
            stack->cpu.acquire(stack->perEvent)
                .onComplete(world->life.guard([world, reader, stack,
                             sentAt](const Result<sim::Unit>&) {
                    if (sentAt > 0) world->e2e.record(world->exec().now() - sentAt);
                    ++world->drainedEvents;
                    world->consumed.add(1, world->exec().now());
                    pumpReader(world, reader, stack);
                }));
        }));
}

/// Wraps a baseline consumer delivery through a consumer-side client stack:
/// events are counted (and e2e recorded) only after the client has had CPU
/// time to process them, which is what caps read throughput per consumer.
template <typename Hist>
std::function<void(uint32_t, uint64_t, sim::Duration)> consumerStack(
    sim::Core& exec, Hist* hist, ConsumeStats* stats, sim::Duration perEvent) {
    auto stack = std::make_shared<ClientStack>(exec, perEvent, 0.0);
    sim::Core* e = &exec;
    return [stack, hist, stats, e](uint32_t events, uint64_t, sim::Duration e2e) {
        sim::TimePoint deliveredAt = e->now();
        stack->cpu
            .acquire(static_cast<sim::Duration>(events) * stack->perEvent)
            .onComplete([stack, hist, stats, e, events, e2e,
                         deliveredAt](const Result<sim::Unit>&) {
                sim::Duration total = e2e + (e->now() - deliveredAt);
                for (uint32_t i = 0; i < events; ++i) hist->record(total);
                if (stats) stats->add(events, e->now());
            });
    };
}

}  // namespace

std::unique_ptr<PravegaWorld> makePravega(const PravegaOptions& opt) {
    auto world = std::make_unique<PravegaWorld>();

    cluster::ClusterConfig cfg;
    cfg.ltsKind = opt.ltsKind;
    cfg.bookie.journalSync = opt.journalSync;
    if (opt.tweak) opt.tweak(cfg);
    world->cluster = std::make_unique<cluster::PravegaCluster>(cfg);

    controller::StreamConfig streamCfg;
    streamCfg.initialSegments = opt.segments;
    Status created = world->cluster->createStream("bench", "stream", streamCfg);
    if (!created.isOk()) {
        std::fprintf(stderr, "stream creation failed: %s\n", created.toString().c_str());
        std::abort();
    }

    if (opt.numReaders > 0) {
        auto group = world->cluster->makeReaderGroup("bench-readers", {"bench/stream"});
        world->group = group.value();
        for (int i = 0; i < opt.numReaders; ++i) {
            world->readers.push_back(world->group->createReader(
                "reader-" + std::to_string(i), world->cluster->newClientHost()));
        }
        world->cluster->runFor(sim::sec(3));  // let readers acquire all segments
        for (auto& reader : world->readers) {
            pumpReader(world.get(), reader.get(),
                       std::make_shared<ClientStack>(world->exec(),
                                                     ClientCosts::kPravegaReadPerEvent, 0.0));
        }
    }

    for (int i = 0; i < opt.numWriters; ++i) {
        world->writers.push_back(world->cluster->makeWriter("bench/stream", opt.writer));
        client::EventWriter* writer = world->writers.back().get();
        sim::Machine* exec = &world->exec();
        auto stack = std::make_shared<ClientStack>(*exec, ClientCosts::kPravegaPerEvent,
                                                   ClientCosts::kPravegaPerByteNs);
        Producer p;
        p.send = throttleClient(stack, [writer, exec](std::string key, uint32_t size,
                                                      std::function<void(bool)> ack) {
            Bytes payload = stampedPayload(exec->now(), size);
            writer->writeEvent(key, BytesView(payload), statusAck(std::move(ack)));
        });
        p.flush = [writer]() { writer->flush(); };
        world->producers.push_back(std::move(p));
    }
    return world;
}

std::unique_ptr<KafkaWorld> makeKafka(const KafkaOptions& opt) {
    auto world = std::make_unique<KafkaWorld>();
    world->net = std::make_unique<sim::Network>(world->exec(), sim::Link::Config{});

    baselines::KafkaConfig cfg;
    cfg.flushEveryMessage = opt.flushEveryMessage;
    cfg.batchBytes = opt.batchBytes;
    cfg.lingerTime = opt.lingerTime;
    world->cluster = std::make_unique<baselines::KafkaCluster>(world->exec(), *world->net,
                                                               /*firstBrokerHost=*/500, cfg);
    world->cluster->createTopic("bench", opt.partitions);

    if (opt.numConsumers > 0) {
        KafkaWorld* w = world.get();
        for (int p = 0; p < opt.partitions; ++p) {
            world->kconsumers.push_back(world->cluster->makeConsumer(
                900 + p, "bench", p,
                consumerStack(w->exec(), &w->e2e, &w->consumed,
                              ClientCosts::kKafkaReadPerEvent)));
        }
    }
    for (int i = 0; i < opt.numProducers; ++i) {
        world->kproducers.push_back(world->cluster->makeProducer(1000 + i, "bench"));
        world->producers.push_back(baselineProducer(world->exec(), world->kproducers.back().get(),
                                                    ClientCosts::kKafkaPerEvent,
                                                    ClientCosts::kKafkaPerByteNs));
    }
    return world;
}

std::unique_ptr<PulsarWorld> makePulsar(const PulsarOptions& opt) {
    auto world = std::make_unique<PulsarWorld>();
    world->net = std::make_unique<sim::Network>(world->exec(), sim::Link::Config{});

    for (int i = 0; i < 3; ++i) {
        sim::DiskModel::Config dcfg;
        if (i == 2) dcfg.bytesPerSec *= opt.bookieSkew;
        world->disks.push_back(std::make_unique<sim::DiskModel>(world->exec(), dcfg));
        world->bookies.push_back(std::make_unique<wal::Bookie>(
            world->exec(), 100 + i, *world->disks.back(), wal::Bookie::Config{}));
    }
    std::vector<wal::Bookie*> bookiePtrs;
    for (auto& b : world->bookies) bookiePtrs.push_back(b.get());

    if (opt.offloadEnabled) {
        world->lts = std::make_unique<sim::ObjectStoreModel>(world->exec(),
                                                             sim::ObjectStoreModel::Config{});
    }
    baselines::PulsarConfig cfg;
    cfg.batchingEnabled = opt.batchingEnabled;
    cfg.repl.ackQuorum = opt.ackQuorum;
    cfg.offloadEnabled = opt.offloadEnabled;
    cfg.brokerMemoryLimitBytes = opt.brokerMemoryLimitBytes;
    world->cluster = std::make_unique<baselines::PulsarCluster>(
        world->exec(), *world->net, /*firstBrokerHost=*/600,
        wal::WalEnv{world->exec(), *world->net, world->registry, world->logMeta, bookiePtrs},
        world->lts.get(), cfg);
    world->cluster->createTopic("bench", opt.partitions);

    if (opt.numConsumers > 0) {
        PulsarWorld* w = world.get();
        for (int p = 0; p < opt.partitions; ++p) {
            world->pconsumers.push_back(world->cluster->makeConsumer(
                900 + p, "bench", p, /*fromEarliest=*/false,
                consumerStack(w->exec(), &w->e2e, &w->consumed,
                              ClientCosts::kPulsarReadPerEvent)));
        }
    }
    for (int i = 0; i < opt.numProducers; ++i) {
        world->pproducers.push_back(world->cluster->makeProducer(1000 + i, "bench"));
        world->producers.push_back(baselineProducer(world->exec(), world->pproducers.back().get(),
                                                    ClientCosts::kPulsarPerEvent,
                                                    ClientCosts::kPulsarPerByteNs));
    }
    return world;
}

}  // namespace pravega::bench
