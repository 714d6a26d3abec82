// Cluster coordination: the ZooKeeper stand-in (§2.2).
//
// Pravega uses a consensus service only for leader election and cluster
// management — notably the assignment of segment containers to segment
// stores, which must be kept in a consistent store so that a container has
// exactly one owner (§4.4). CoordinationStore is a linearizable versioned
// KV with watches; ContainerRegistry implements the assignment logic and
// the crash-redistribution protocol on top of it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "segmentstore/segment_store.h"

namespace pravega::cluster {

class CoordinationStore {
public:
    struct Node {
        Bytes value;
        int64_t version = 0;
    };
    using Watcher = std::function<void(const std::string& key)>;

    /// Creates a key; fails with AlreadyExists.
    Result<int64_t> create(const std::string& key, Bytes value);

    /// Sets a key; `expectedVersion` of -1 is unconditional. Returns the
    /// new version, or BadVersion on mismatch.
    Result<int64_t> set(const std::string& key, Bytes value, int64_t expectedVersion = -1);

    Result<Node> get(const std::string& key) const;
    Status remove(const std::string& key);
    std::vector<std::string> list(const std::string& prefix) const;

    /// Registers a watcher invoked on any create/set/remove under `prefix`.
    void watch(std::string prefix, Watcher watcher);

private:
    void notify(const std::string& key);
    std::map<std::string, Node> nodes_;
    std::vector<std::pair<std::string, Watcher>> watchers_;
};

/// Owns the container → segment-store assignment. Exactly-one-owner is
/// enforced in two layers, as in the paper: the assignment lives here (the
/// consistent store), and WAL fencing guarantees that even a store that
/// wrongly believes it still owns a container cannot write (§4.4).
class ContainerRegistry {
public:
    ContainerRegistry(CoordinationStore& store, uint32_t containerCount)
        : store_(store), containerCount_(containerCount) {}

    uint32_t containerCount() const { return containerCount_; }

    /// Distributes all containers round-robin across `stores`, starting
    /// (or re-starting, with recovery+fencing) each container on its owner.
    Status rebalance(const std::vector<segmentstore::SegmentStore*>& stores);

    /// Redistributes a crashed store's containers to the survivors. The
    /// crashed store is NOT shut down gracefully — the new owners' WAL
    /// recovery fences it out.
    Status failStore(segmentstore::SegmentStore* crashed,
                     const std::vector<segmentstore::SegmentStore*>& survivors);

    /// Gracefully moves one container to `target`: the current owner shuts
    /// it down (pending ops fail ContainerOffline, except appends in WAL
    /// flight, whose completions are dropped), then `target` runs recovery +
    /// WAL fencing. Clients retry against the new owner: every client
    /// request resolves the owner here at send time (client::ContainerChannel).
    /// The load-aware rebalancer's primitive; a no-op when `target` already
    /// owns it.
    Status moveContainer(uint32_t containerId, segmentstore::SegmentStore* target);

    segmentstore::SegmentStore* ownerOf(uint32_t containerId) const;
    segmentstore::SegmentContainer* containerFor(uint32_t containerId) const;

private:
    Status assign(uint32_t containerId, segmentstore::SegmentStore* store);

    CoordinationStore& store_;
    uint32_t containerCount_;
    std::map<uint32_t, segmentstore::SegmentStore*> owners_;
};

}  // namespace pravega::cluster
