// PravegaCluster: assembles a full simulated deployment — bookies with
// journal drives, segment stores hosting containers, long-term storage, the
// controller, and the network — mirroring the paper's Table 1 layout
// (3 segment stores co-located with 3 bookies, one NVMe journal drive each,
// EFS-like LTS). Tests, benchmarks and examples all build on this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "client/event_writer.h"
#include "client/reader_group.h"
#include "cluster/coordination.h"
#include "controller/auto_scaler.h"
#include "controller/controller.h"
#include "controller/quota.h"
#include "controller/rebalancer.h"
#include "lts/archive_tier.h"
#include "lts/chunk_codec.h"
#include "lts/chunk_storage.h"
#include "lts/fault_injection.h"
#include "segmentstore/segment_store.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "wal/bookie.h"
#include "wal/log_client.h"

namespace pravega::cluster {

enum class LtsKind { InMemory, SimulatedObject, NoOp };

struct ClusterConfig {
    int segmentStores = 3;
    int bookies = 3;
    uint32_t containerCount = 8;

    wal::Bookie::Config bookie;
    sim::DiskModel::Config journalDrive;
    segmentstore::SegmentStore::Config store;
    sim::Link::Config link;

    LtsKind ltsKind = LtsKind::SimulatedObject;
    sim::ObjectStoreModel::Config lts;

    /// Wraps the LTS backend in a FaultInjectionChunkStorage so the chaos
    /// layer can inject outages/slowdowns (`faultLts()` exposes the knobs).
    bool faultInjectLts = false;
    lts::FaultInjectionChunkStorage::Config ltsFaults;

    /// Cold archive tier: migrates idle chunks from the primary store to a
    /// tape-library model (deep first-byte latency). Off by default.
    bool archiveLts = false;
    lts::ArchiveTierChunkStorage::Config ltsArchive;

    /// LTS data reduction: per-block compression + CRC checksums on the
    /// flush path (outermost decorator — archived chunks stay compressed).
    /// Off by default; the golden smoke JSON depends on that.
    bool compressLts = false;

    /// Load-aware container rebalancing across segment stores: replaces
    /// the boot-time static `cid % N` placement with a greedy move-budget
    /// policy once traffic flows. Off by default.
    bool rebalanceContainers = false;
    controller::Rebalancer::Config rebalancer;

    /// Per-tenant (scope) ingest quotas with cooperative throttling.
    /// Off by default; register limits via `quotas()->setQuota(...)`.
    bool tenantQuotas = false;
    controller::TenantQuotaManager::Config quota;

    /// Seed for the network's per-link fault PRNGs (probabilistic loss).
    uint64_t networkFaultSeed = 0x5EED0FFAULL;

    /// Sharded-substrate shape: core count, cross-core hand-off latency,
    /// per-core RNG seeding. The default (1 core) reproduces the pre-shard
    /// single-executor behavior byte-for-byte.
    sim::MachineConfig machine;
};

class PravegaCluster {
public:
    PravegaCluster() : PravegaCluster(ClusterConfig{}) {}
    explicit PravegaCluster(ClusterConfig cfg);

    /// The sharded simulation substrate driving this cluster.
    sim::Machine& machine() { return machine_; }
    /// The control-plane core (core 0): controller, coordination, and any
    /// component not explicitly pinned elsewhere live here.
    sim::Core& executor() { return machine_; }
    /// Core hosting container `containerId` (containerId % cores).
    sim::Core& containerCore(uint32_t containerId) {
        return machine_.core(static_cast<int>(containerId) % machine_.coreCount());
    }
    sim::Network& network() { return net_; }
    controller::Controller& ctrl() { return *controller_; }
    ContainerRegistry& registry() { return *registry_; }
    /// The storage stores write to: the outermost decorator of the stack
    /// codec(archive(fault(backend))), each layer optional.
    lts::ChunkStorage& lts() { return *ltsTop_; }
    CoordinationStore& coordination() { return coordination_; }

    std::vector<segmentstore::SegmentStore*> stores();
    std::vector<wal::Bookie*> bookies();
    wal::WalEnv walEnv();

    /// Allocates a host id for a client machine, pinned round-robin across
    /// the machine's cores.
    sim::HostId newClientHost() {
        sim::HostId h = nextClientHost_++;
        net_.pinHost(h, machine_.core(static_cast<int>(h - 1000) % machine_.coreCount()));
        return h;
    }

    // ---- convenience factories -----------------------------------------
    std::unique_ptr<client::EventWriter> makeWriter(const std::string& scopedStream,
                                                    client::WriterConfig cfg = {});
    Result<std::shared_ptr<client::ReaderGroup>> makeReaderGroup(
        const std::string& groupName, const std::vector<std::string>& streams,
        client::ReaderConfig cfg = {});

    /// Creates scope+stream with the given config; runs the sim until done.
    Status createStream(const std::string& scope, const std::string& stream,
                        controller::StreamConfig config);

    /// Crashes a segment store (no graceful shutdown) and redistributes its
    /// containers to the survivors, exercising WAL fencing (§4.4).
    Status crashStore(size_t index);

    // ---- chaos hooks ----------------------------------------------------

    /// Hard-crashes a bookie: queued journal adds fail, unsynced entries
    /// are lost, and every RPC is rejected until `restartBookie`.
    Status crashBookie(size_t index);

    /// Restarts a crashed bookie (journal replay recovers durable entries).
    Status restartBookie(size_t index);

    bool bookieAlive(size_t index) const {
        return index < bookies_.size() && bookies_[index]->alive();
    }
    sim::HostId bookieHost(size_t index) const { return bookies_[index]->host(); }
    sim::HostId storeHost(size_t index) const;

    /// The load-aware container rebalancer, or nullptr when
    /// `rebalanceContainers` is off.
    controller::Rebalancer* rebalancer() { return rebalancer_.get(); }

    /// The tenant quota manager, or nullptr when `tenantQuotas` is off.
    controller::TenantQuotaManager* quotas() { return quotas_.get(); }

    /// The fault-injection decorator around LTS, or nullptr when
    /// `faultInjectLts` is off.
    lts::FaultInjectionChunkStorage* faultLts() { return faultLts_.get(); }

    /// The codec decorator, or nullptr when `compressLts` is off.
    lts::CodecChunkStorage* codecLts() { return codecLts_.get(); }

    /// Runs the simulation for the given virtual duration / until idle.
    void runFor(sim::Duration d) { machine_.runFor(d); }
    uint64_t runUntilIdle() { return machine_.runUntilIdle(); }

    /// Runs until `pred()` or the (virtual-time) deadline; true if pred held.
    bool runUntil(const std::function<bool()>& pred, sim::Duration timeout);

    const ClusterConfig& config() const { return cfg_; }

private:
    ClusterConfig cfg_;
    sim::Machine machine_;
    sim::Network net_;
    wal::LedgerRegistry ledgerRegistry_;
    wal::LogMetadataStore logMeta_;
    std::vector<std::unique_ptr<sim::DiskModel>> journalDrives_;
    std::vector<std::unique_ptr<wal::Bookie>> bookies_;
    std::unique_ptr<lts::ChunkStorage> lts_;  // backend
    std::unique_ptr<lts::FaultInjectionChunkStorage> faultLts_;  // optional decorator
    std::unique_ptr<lts::ArchiveTierChunkStorage> archiveLts_;   // optional decorator
    std::unique_ptr<lts::CodecChunkStorage> codecLts_;           // optional decorator
    lts::ChunkStorage* ltsTop_ = nullptr;  // outermost layer of the stack
    std::vector<std::unique_ptr<segmentstore::SegmentStore>> stores_;
    std::vector<bool> storeAlive_;
    CoordinationStore coordination_;
    std::unique_ptr<ContainerRegistry> registry_;
    std::unique_ptr<controller::Controller> controller_;
    // Declared after controller_/registry_/stores_ (destroyed first: both
    // hold references into them).
    std::unique_ptr<controller::Rebalancer> rebalancer_;
    std::unique_ptr<controller::TenantQuotaManager> quotas_;
    sim::HostId nextClientHost_ = 1000;
};

}  // namespace pravega::cluster
