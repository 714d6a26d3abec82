// ContainerChannel: the one client→container request path (§4.4).
//
// Every client request — SetupAppend, block appends, fetches, synchronizer
// reads and conditional appends, KV-table ops — is one round trip to the
// store that owns the segment's container. The owner is resolved from the
// ContainerRegistry at send time, never cached, so after a container move
// or failover the next call reaches the new owner; a store that no longer
// hosts the container answers ContainerOffline (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "cluster/coordination.h"
#include "controller/controller.h"
#include "segmentstore/container.h"
#include "segmentstore/segment_store.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/network.h"

namespace pravega::client {

/// Per-message protocol framing on the wire, in each direction.
inline constexpr uint64_t kWireOverheadBytes = 64;

class ContainerChannel {
public:
    ContainerChannel(sim::Network& net, sim::HostId clientHost, const controller::SegmentUri& uri)
        : net_(&net), clientHost_(clientHost), registry_(uri.registry),
          containerId_(uri.containerId) {}

    /// The container's current owner (nullptr while unassigned).
    segmentstore::SegmentStore* owner() const { return registry_->ownerOf(containerId_); }

    /// The container on its current owner, for the synchronous peeks
    /// (segment info) that are modelled as free: no network hop.
    segmentstore::SegmentContainer* container() const {
        return registry_->containerFor(containerId_);
    }

    /// Sends `requestBytes` plus framing to the current owner, runs
    /// `op(store, container)` there and sends its result back (framing plus
    /// the data of a ReadResult, framing alone otherwise) to `done(result)`.
    /// Once `caller` is gone, `done` gets Cancelled and nothing further runs.
    ///
    /// The call's state lives in one allocation that each hop moves along,
    /// so every hop's closure is a pointer and allocates nothing itself. A
    /// hop the network drops frees the state. The result is moved, not
    /// copied, from `op`'s future to `done` unless something else also reads
    /// that future (`Future::consume`).
    template <typename T, typename Op, typename Done>
    void call(const sim::Lifetime& caller, uint64_t requestBytes, Op op, Done done) const {
        segmentstore::SegmentStore* store = owner();
        if (!store) return done(Result<T>(Err::ContainerOffline, "unassigned"));
        std::unique_ptr<Call<T, Op, Done>> call(new Call<T, Op, Done>{
            net_, clientHost_, store, store->host(), containerId_, caller.token(), std::move(op),
            std::move(done), std::nullopt});
        net_->send(clientHost_, store->host(), requestBytes + kWireOverheadBytes,
                   [call = std::move(call)]() mutable { arrive(std::move(call)); });
    }

    /// For ops that cost store CPU: charges `bytes` on the container's core,
    /// then runs `fn(container)`. The container is looked up again after the
    /// charge, since a move may destroy it while the request waits for CPU.
    template <typename T, typename Fn>
    static sim::Future<T> charged(segmentstore::SegmentStore& store, uint32_t containerId,
                                  uint64_t bytes, Fn fn) {
        return store.chargeRequest(containerId, bytes)
            .thenAsync([&store, containerId, fn = std::move(fn)](const sim::Unit&) mutable {
                auto* container = store.container(containerId);
                if (!container) return sim::Future<T>::failed(Status(Err::ContainerOffline));
                return fn(*container);
            });
    }

private:
    /// One in-flight call, from request to reply.
    template <typename T, typename Op, typename Done>
    struct Call {
        sim::Network* net;
        sim::HostId client;
        segmentstore::SegmentStore* store;  // the owner the request went to
        sim::HostId server;                 // its host, which sends the reply
        uint32_t containerId;
        sim::Lifetime::Token life;
        Op op;
        Done done;
        std::optional<Result<T>> reply;
    };

    /// At the store: runs the op, then sends its result back.
    template <typename T, typename Op, typename Done>
    static void arrive(std::unique_ptr<Call<T, Op, Done>> call) {
        if (!call->life.alive()) return call->done(Result<T>(Err::Cancelled, "caller closed"));
        auto* container = call->store->container(call->containerId);
        if (!container) {
            return respond(std::move(call), Result<T>(Err::ContainerOffline, "container moved"));
        }
        auto& c = *call;
        c.op(*c.store, *container).consume([call = std::move(call)](Result<T> r) mutable {
            respond(std::move(call), std::move(r));
        });
    }

    template <typename T, typename Op, typename Done>
    static void respond(std::unique_ptr<Call<T, Op, Done>> call, Result<T> r) {
        if (!call->life.alive()) return call->done(Result<T>(Err::Cancelled, "caller closed"));
        uint64_t bytes = kWireOverheadBytes;
        if constexpr (std::is_same_v<T, segmentstore::ReadResult>) {
            if (r.isOk()) bytes += r.value().data.size();
        }
        call->reply.emplace(std::move(r));
        auto& c = *call;
        c.net->send(c.server, c.client, bytes, [call = std::move(call)]() mutable {
            if (!call->life.alive()) return call->done(Result<T>(Err::Cancelled, "caller closed"));
            call->done(std::move(*call->reply));
        });
    }

    sim::Network* net_;
    sim::HostId clientHost_;
    cluster::ContainerRegistry* registry_;
    uint32_t containerId_;
};

}  // namespace pravega::client
