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
    StateSynchronizer(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                      controller::SegmentUri uri, uint64_t wireOverheadBytes = 64)
        : exec_(exec),
          net_(net),
          clientHost_(clientHost),
          uri_(std::move(uri)),
          wireOverhead_(wireOverheadBytes) {}

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
    void enqueue(std::function<void()> op) {
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
    void doFetch(std::function<void(Status)> cb) {
        auto* container = uri_.store->container(uri_.containerId);
        if (!container) {
            cb(Status(Err::ContainerOffline, "sync segment offline"));
            return;
        }
        auto info = container->getInfo(uri_.record.id);
        if (!info) {
            cb(info.status());
            return;
        }
        if (info.value().length <= offset_) {
            cb(Status::ok());
            return;
        }
        int64_t want = info.value().length - offset_;
        net_.send(clientHost_, uri_.store->host(), wireOverhead_,
                  life_.guard([this, want, cb = std::move(cb)]() mutable {
                      auto* c = uri_.store->container(uri_.containerId);
                      if (!c) {
                          cb(Status(Err::ContainerOffline, ""));
                          return;
                      }
                      c->read(uri_.record.id, offset_, want)
                          .onComplete(life_.guard([this, cb = std::move(cb)](
                                          const Result<segmentstore::ReadResult>& r) mutable {
                              uint64_t bytes =
                                  wireOverhead_ + (r.isOk() ? r.value().data.size() : 0);
                              net_.send(uri_.store->host(), clientHost_, bytes,
                                        life_.guard([this, cb = std::move(cb), r]() mutable {
                                            if (!r.isOk()) {
                                                cb(r.status());
                                                return;
                                            }
                                            applyUpdates(BytesView(r.value().data));
                                            cb(Status::ok());
                                        }));
                          }));
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
            int64_t expected = offset_;
            net_.send(
                clientHost_, uri_.store->host(), buf.size() + wireOverhead_,
                life_.guard([this, buf, expected, generator = std::move(generator), done,
                             tries]() mutable {
                    auto* c = uri_.store->container(uri_.containerId);
                    if (!c) {
                        finish(done, Status(Err::ContainerOffline));
                        return;
                    }
                    c->conditionalAppend(uri_.record.id, buf, expected)
                        .onComplete(life_.guard([this, buf, generator = std::move(generator),
                                                 done, tries](const Result<int64_t>& r) mutable {
                            net_.send(
                                uri_.store->host(), clientHost_, wireOverhead_,
                                life_.guard([this, buf, generator = std::move(generator), done,
                                             tries, r]() mutable {
                                    if (r.isOk()) {
                                        // Our own update: apply locally.
                                        applyUpdates(buf.view());
                                        finish(done, true);
                                        return;
                                    }
                                    if (r.code() == Err::BadOffset) {
                                        // Lost the race: catch up, retry.
                                        attempt(std::move(generator), std::move(done),
                                                tries + 1);
                                        return;
                                    }
                                    finish(done, r.status());
                                }));
                        }));
                }));
        });
    }

    sim::Core& exec_;
    sim::Network& net_;
    sim::HostId clientHost_;
    controller::SegmentUri uri_;
    uint64_t wireOverhead_;
    State state_;
    int64_t offset_ = 0;
    bool busy_ = false;
    std::deque<std::function<void()>> pending_;
    sim::Lifetime life_;
};

}  // namespace pravega::client
