#include "cluster/pravega_cluster.h"

#include "common/logging.h"

namespace pravega::cluster {

namespace {
constexpr sim::HostId kBookieHostBase = 100;
constexpr sim::HostId kStoreHostBase = 200;
}  // namespace

PravegaCluster::PravegaCluster(ClusterConfig cfg)
    : cfg_(cfg), machine_(cfg.machine), net_(machine_, cfg.link, cfg.networkFaultSeed) {
    int cores = machine_.coreCount();
    // Bookies, each with a dedicated journal drive (Table 1: 1 NVMe),
    // pinned round-robin across cores: bookie b's RPC handling and journal
    // device live on core (b % cores).
    for (int b = 0; b < cfg_.bookies; ++b) {
        sim::Core& core = machine_.core(b % cores);
        net_.pinHost(kBookieHostBase + b, core);
        journalDrives_.push_back(std::make_unique<sim::DiskModel>(core, cfg_.journalDrive));
        bookies_.push_back(std::make_unique<wal::Bookie>(core, kBookieHostBase + b,
                                                         *journalDrives_.back(), cfg_.bookie));
    }
    ledgerRegistry_.setBookiePool(bookies());

    switch (cfg_.ltsKind) {
        case LtsKind::InMemory:
            lts_ = std::make_unique<lts::InMemoryChunkStorage>();
            break;
        case LtsKind::SimulatedObject:
            lts_ = std::make_unique<lts::SimulatedObjectStorage>(machine_, cfg_.lts);
            break;
        case LtsKind::NoOp:
            lts_ = std::make_unique<lts::NoOpChunkStorage>();
            break;
    }
    if (cfg_.faultInjectLts) {
        faultLts_ = std::make_unique<lts::FaultInjectionChunkStorage>(machine_, *lts_,
                                                                      cfg_.ltsFaults);
    }
    // Decorator stack, inside out: backend → faults → archive → codec. The
    // codec sits outermost so chunks stay compressed (and checksummed) when
    // they migrate to the archive, and a fault-injected bit flip lands on
    // stored bytes — which the codec must catch on read.
    ltsTop_ = faultLts_ ? static_cast<lts::ChunkStorage*>(faultLts_.get()) : lts_.get();
    if (cfg_.archiveLts) {
        archiveLts_ = std::make_unique<lts::ArchiveTierChunkStorage>(machine_, *ltsTop_,
                                                                     cfg_.ltsArchive);
        ltsTop_ = archiveLts_.get();
    }
    if (cfg_.compressLts) {
        codecLts_ = std::make_unique<lts::CodecChunkStorage>(machine_, *ltsTop_);
        ltsTop_ = codecLts_.get();
    }

    // Segment stores: frontend (request arrival) on core (s % cores),
    // containers placed on core (containerId % cores) — the shard-per-core
    // layout ("each core manages a distinct set of logs").
    for (int s = 0; s < cfg_.segmentStores; ++s) {
        sim::Core& core = machine_.core(s % cores);
        net_.pinHost(kStoreHostBase + s, core);
        stores_.push_back(std::make_unique<segmentstore::SegmentStore>(
            core, kStoreHostBase + s, walEnv(), lts(), cfg_.store,
            [this](uint32_t cid) -> sim::Core& { return containerCore(cid); }));
        storeAlive_.push_back(true);
    }

    registry_ = std::make_unique<ContainerRegistry>(coordination_, cfg_.containerCount);
    Status balanced = registry_->rebalance(stores());
    if (!balanced) {
        PLOG_ERROR("cluster", "container distribution failed: %s",
                   balanced.toString().c_str());
    }
    controller_ = std::make_unique<controller::Controller>(machine_, *registry_);

    if (cfg_.rebalanceContainers) {
        rebalancer_ = std::make_unique<controller::Rebalancer>(machine_, *registry_, stores(),
                                                               cfg_.rebalancer);
        rebalancer_->start();
    }
    if (cfg_.tenantQuotas) {
        quotas_ = std::make_unique<controller::TenantQuotaManager>(machine_, *controller_,
                                                                   stores(), cfg_.quota);
        quotas_->start();
    }
}

wal::WalEnv PravegaCluster::walEnv() {
    return wal::WalEnv{machine_, net_, ledgerRegistry_, logMeta_, bookies()};
}

std::vector<segmentstore::SegmentStore*> PravegaCluster::stores() {
    std::vector<segmentstore::SegmentStore*> out;
    for (size_t i = 0; i < stores_.size(); ++i) {
        if (storeAlive_[i]) out.push_back(stores_[i].get());
    }
    return out;
}

std::vector<wal::Bookie*> PravegaCluster::bookies() {
    std::vector<wal::Bookie*> out;
    out.reserve(bookies_.size());
    for (auto& b : bookies_) out.push_back(b.get());
    return out;
}

std::unique_ptr<client::EventWriter> PravegaCluster::makeWriter(const std::string& scopedStream,
                                                                client::WriterConfig cfg) {
    sim::HostId host = newClientHost();
    auto writer = std::make_unique<client::EventWriter>(net_.coreOf(host), net_, host,
                                                        *controller_, scopedStream, cfg);
    writer->initialize();
    return writer;
}

Result<std::shared_ptr<client::ReaderGroup>> PravegaCluster::makeReaderGroup(
    const std::string& groupName, const std::vector<std::string>& streams,
    client::ReaderConfig cfg) {
    sim::HostId host = newClientHost();
    return client::ReaderGroup::create(net_.coreOf(host), net_, host, *controller_, groupName,
                                       streams, cfg);
}

Status PravegaCluster::createStream(const std::string& scope, const std::string& stream,
                                    controller::StreamConfig config) {
    controller_->createScope(scope);
    auto fut = controller_->createStream(scope, stream, config);
    // Stream creation is a metadata cascade; drive the sim until it lands.
    bool done = runUntil([&]() { return fut.isReady(); }, sim::sec(10));
    if (!done) return Status(Err::Timeout, "stream creation did not finish");
    return fut.result().status();
}

Status PravegaCluster::crashBookie(size_t index) {
    if (index >= bookies_.size()) return Status(Err::InvalidArgument, "no such bookie");
    if (!bookies_[index]->alive()) return Status(Err::InvalidArgument, "bookie already down");
    bookies_[index]->crash();
    return Status::ok();
}

Status PravegaCluster::restartBookie(size_t index) {
    if (index >= bookies_.size()) return Status(Err::InvalidArgument, "no such bookie");
    if (bookies_[index]->alive()) return Status(Err::InvalidArgument, "bookie not crashed");
    bookies_[index]->restart();
    return Status::ok();
}

sim::HostId PravegaCluster::storeHost(size_t index) const {
    return kStoreHostBase + static_cast<sim::HostId>(index);
}

Status PravegaCluster::crashStore(size_t index) {
    if (index >= stores_.size() || !storeAlive_[index]) {
        return Status(Err::InvalidArgument, "no such live store");
    }
    storeAlive_[index] = false;
    // No graceful shutdown: the survivors' recovery fences the WAL (§4.4).
    return registry_->failStore(stores_[index].get(), stores());
}

bool PravegaCluster::runUntil(const std::function<bool()>& pred, sim::Duration timeout) {
    sim::TimePoint deadline = machine_.now() + timeout;
    while (!pred() && machine_.now() < deadline) {
        if (!machine_.runOne()) {
            // Idle: advance in small steps so timers can still fire.
            machine_.runUntil(std::min(deadline, machine_.now() + sim::msec(1)));
            if (machine_.pendingTasks() == 0) break;
        }
    }
    return pred();
}

}  // namespace pravega::cluster
