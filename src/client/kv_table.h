// KeyValueTable client [24]: the key-value API built on top of streams that
// Pravega uses for its own metadata (§2.2, §4.3) and exposes to users.
// Supports conditional (version-checked) updates and multi-key transactions
// applied atomically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/container_channel.h"
#include "controller/controller.h"
#include "segmentstore/table_segment.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/network.h"

namespace pravega::client {

class KeyValueTable {
public:
    /// Creates a new KV table backed by a table segment.
    static Result<std::unique_ptr<KeyValueTable>> create(sim::Core& exec, sim::Network& net,
                                                         sim::HostId clientHost,
                                                         controller::Controller& controller,
                                                         const std::string& scopedName);

    /// Unconditional or conditional put; returns the new version.
    sim::Future<int64_t> put(const std::string& key, Bytes value,
                             int64_t expectedVersion = segmentstore::kAnyVersion);

    /// Insert-only put (fails with BadVersion if the key exists).
    sim::Future<int64_t> putIfAbsent(const std::string& key, Bytes value) {
        return put(key, std::move(value), segmentstore::kNotExists);
    }

    sim::Future<std::optional<segmentstore::TableValue>> get(const std::string& key);

    /// Multi-key atomic transaction (§4.3: "using transactions to update
    /// multiple keys at once").
    sim::Future<std::vector<int64_t>> updateAll(std::vector<segmentstore::TableUpdate> batch);

private:
    KeyValueTable(sim::Network& net, sim::HostId clientHost, const controller::SegmentUri& uri)
        : channel_(net, clientHost, uri), table_(uri.record.id) {}

    /// One channel call whose reply completes the returned future.
    template <typename T, typename Op>
    sim::Future<T> request(uint64_t requestBytes, Op op) {
        sim::Promise<T> done;
        auto fut = done.future();
        channel_.call<T>(life_, requestBytes, std::move(op),
                         [done](const Result<T>& r) mutable { done.complete(r); });
        return fut;
    }

    ContainerChannel channel_;
    segmentstore::SegmentId table_;
    sim::Lifetime life_;  // a request outliving the table fails with Cancelled
};

}  // namespace pravega::client
