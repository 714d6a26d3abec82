// StateSynchronizer (§3.3, [27]): consistent shared state over a Pravega
// segment via optimistic concurrency.
//
// Participants hold a local copy of the state; every mutation is an update
// record appended to the backing segment with a conditional append at the
// expected tail offset. If another participant got there first, the append
// fails with BadOffset, the loser fetches and applies the missed updates,
// and retries its mutation against the new state. Reader groups use this to
// agree on segment-to-reader assignments.
//
// Operations issued through ONE synchronizer instance are internally
// serialized (an overlapping fetch and update would otherwise double-apply
// records to the local copy); cross-instance concurrency is what the
// conditional append arbitrates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>

#include "client/container_channel.h"
#include "client/framing.h"
#include "common/bytes.h"
#include "controller/controller.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/network.h"

namespace pravega::client {

/// State must be default-constructible and provide
/// `void apply(BytesView update)`.
template <typename State>
class StateSynchronizer {
public:
    StateSynchronizer(sim::Core& /*exec*/, sim::Network& net, sim::HostId clientHost,
                      const controller::SegmentUri& uri)
        : channel_(net, clientHost, uri), segment_(uri.record.id) {}

    StateSynchronizer(const StateSynchronizer&) = delete;
    StateSynchronizer& operator=(const StateSynchronizer&) = delete;

    const State& state() const { return state_; }
    int64_t revision() const { return offset_; }

    /// Fetches updates appended since our revision and applies them.
    sim::Future<sim::Unit> fetchUpdates() {
        sim::Promise<sim::Unit> done;
        auto fut = done.future();
        enqueue([this, done]() mutable {
            doFetch([this, done](Status s) mutable {
                if (s.isOk()) {
                    finish(done, sim::Unit{});
                } else {
                    finish(done, s);
                }
            });
        });
        return fut;
    }

    /// Optimistic mutation: `generator(state)` returns the serialized
    /// update to append, or nullopt to abort (condition no longer holds).
    /// Retries on contention. Completes with true if an update landed.
    sim::Future<bool> updateState(std::function<std::optional<Bytes>(const State&)> generator) {
        sim::Promise<bool> done;
        auto fut = done.future();
        enqueue([this, generator = std::move(generator), done]() mutable {
            attempt(std::move(generator), std::move(done), 0);
        });
        return fut;
    }

private:
    // ---- per-instance operation serialization ----
    void enqueue(sim::Callback<void()> op) {
        pending_.push_back(std::move(op));
        pump();
    }
    void pump() {
        if (busy_ || pending_.empty()) return;
        busy_ = true;
        auto op = std::move(pending_.front());
        pending_.pop_front();
        op();
    }
    void finishOp() {
        busy_ = false;
        pump();
    }
    /// Completes a caller's promise, then pumps the op queue unless a
    /// continuation of that promise destroyed this synchronizer.
    template <typename T>
    void finish(sim::Promise<T>& done, std::type_identity_t<Result<T>> r) {
        auto life = life_.token();
        done.complete(std::move(r));
        if (life.alive()) finishOp();
    }

    void applyUpdates(BytesView data) {
        size_t pos = 0;
        while (auto update = decodeEvent(data, pos)) {
            state_.apply(*update);
        }
        offset_ += static_cast<int64_t>(pos);
    }

    /// Reads [offset_, tail) and applies it; `cb(status)` on completion.
    void doFetch(sim::Callback<void(Status)> cb) {
        // Peeking at the tail is modelled as free: no network hop.
        auto* container = channel_.container();
        if (!container) {
            cb(Status(Err::ContainerOffline, "sync segment offline"));
            return;
        }
        auto info = container->getInfo(segment_);
        if (!info) {
            cb(info.status());
            return;
        }
        if (info.value().length <= offset_) {
            cb(Status::ok());
            return;
        }
        channel_.call<segmentstore::ReadResult>(
            life_, 0,
            [id = segment_, offset = offset_, want = info.value().length - offset_](
                segmentstore::SegmentStore&, segmentstore::SegmentContainer& c) {
                return c.read(id, offset, want);
            },
            life_.guard([this, cb = std::move(cb)](
                            const Result<segmentstore::ReadResult>& r) mutable {
                if (!r.isOk()) {
                    cb(r.status());
                    return;
                }
                applyUpdates(BytesView(r.value().data));
                cb(Status::ok());
            }));
    }

    void attempt(std::function<std::optional<Bytes>(const State&)> generator,
                 sim::Promise<bool> done, int tries) {
        if (tries > 64) {
            finish(done, Status(Err::Timeout, "state synchronizer contention"));
            return;
        }
        doFetch([this, generator = std::move(generator), done, tries](Status fetched) mutable {
            if (!fetched.isOk()) {
                finish(done, fetched);
                return;
            }
            auto update = generator(state_);
            if (!update) {
                finish(done, false);
                return;
            }
            Bytes framed;
            encodeEvent(framed, BytesView(*update));
            auto buf = SharedBuf(std::move(framed));
            channel_.call<int64_t>(
                life_, buf.size(),
                [id = segment_, buf, expected = offset_](segmentstore::SegmentStore&,
                                                         segmentstore::SegmentContainer& c) {
                    return c.conditionalAppend(id, buf, expected);
                },
                life_.guard([this, buf, generator = std::move(generator), done,
                             tries](const Result<int64_t>& r) mutable {
                    if (r.isOk()) {
                        // Our own update: apply locally.
                        applyUpdates(buf.view());
                        finish(done, true);
                        return;
                    }
                    if (r.code() == Err::BadOffset) {
                        // Lost the race: catch up, retry.
                        attempt(std::move(generator), std::move(done), tries + 1);
                        return;
                    }
                    finish(done, r.status());
                }));
        });
    }

    ContainerChannel channel_;
    segmentstore::SegmentId segment_;
    State state_;
    int64_t offset_ = 0;
    bool busy_ = false;
    std::deque<sim::Callback<void()>> pending_;
    sim::Lifetime life_;
};

}  // namespace pravega::client
