// Single-threaded Future/Promise for the discrete-event substrate.
//
// Continuations run synchronously when the promise completes (all code runs
// on the one executor thread, so no synchronization is needed). `Unit`
// stands in for `void` to avoid a template specialization.
//
// A promise and its futures share one allocation (`Counted`: a plain count,
// no atomic): the result, the first continuation inline, and a vector only
// for the second and later ones.
//
// Continuations take the result by const reference (`onComplete`, `then`,
// `thenAsync`), except a *consumer* (`consume`), which takes it by value.
// A consumer receives the result moved rather than copied when nothing else
// can read it: it is the last continuation to run, no Future shares the
// state, and the promise gave itself up as it completed
// (`std::move(p).complete(r)`). A fetch reply therefore travels from the
// container's promise to the client without a copy of its bytes.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/counted.h"
#include "common/result.h"
#include "sim/callback.h"

namespace pravega::sim {

struct Unit {};

template <typename T>
class Promise;

namespace detail {

/// The shared state behind one Promise and its Futures.
template <typename T>
struct FutureState {
    /// A registered continuation. `sole` is true when the continuation may
    /// move the result out: nothing else can read it afterwards.
    using Slot = Callback<void(pravega::Result<T>&, bool sole)>;

    std::optional<pravega::Result<T>> result;
    Slot first;
    std::vector<Slot> rest;

    void add(Slot slot) {
        if (!first) {
            first = std::move(slot);
        } else {
            rest.push_back(std::move(slot));
        }
    }
};

template <typename T>
using StateRef = Counted<FutureState<T>>;

}  // namespace detail

template <typename T>
class Future {
    using State = detail::FutureState<T>;

public:
    /// A registered continuation (see `FutureState::Slot`).
    using Callback = typename State::Slot;

    Future() = default;

    bool valid() const { return static_cast<bool>(state_); }
    bool isReady() const { return state_ && state_->result.has_value(); }

    const pravega::Result<T>& result() const {
        assert(isReady());
        return *state_->result;
    }

    /// Registers `fn(const Result<T>&)`; runs it at once if already
    /// completed. Continuations run in registration order.
    template <typename F>
    void onComplete(F fn) const {
        assert(state_);
        if (state_->result) {
            fn(std::as_const(*state_->result));
        } else {
            state_->add([fn = std::move(fn)](pravega::Result<T>& r, bool) mutable {
                fn(std::as_const(r));
            });
        }
    }

    /// Registers `fn(Result<T>)` and gives up this handle. `fn` receives the
    /// result moved when nothing else can read it, a copy otherwise.
    template <typename F>
    void consume(F fn) && {
        assert(state_);
        detail::StateRef<T> s = std::move(state_);
        if (s->result) {
            deliver(fn, *s->result, s.useCount() == 1);
        } else {
            s->add([fn = std::move(fn)](pravega::Result<T>& r, bool sole) mutable {
                deliver(fn, r, sole);
            });
        }
    }

    /// Chains a transformation `fn(const T&) -> U`; errors short-circuit.
    template <typename F>
    auto then(F fn) const -> Future<std::invoke_result_t<F, const T&>> {
        using U = std::invoke_result_t<F, const T&>;
        Promise<U> p;
        auto fut = p.future();
        onComplete([p = std::move(p), fn = std::move(fn)](const pravega::Result<T>& r) mutable {
            if (r.isOk()) {
                std::move(p).complete(fn(r.value()));
            } else {
                std::move(p).complete(r.status());
            }
        });
        return fut;
    }

    /// Chains an async continuation `fn(const T&) -> Future<U>`. The inner
    /// future's result is moved on when nothing else can read it.
    template <typename F>
    auto thenAsync(F fn) const -> std::invoke_result_t<F, const T&> {
        using FutU = std::invoke_result_t<F, const T&>;
        using U = typename FutU::ValueType;
        Promise<U> p;
        auto fut = p.future();
        onComplete([p = std::move(p), fn = std::move(fn)](const pravega::Result<T>& r) mutable {
            if (!r.isOk()) {
                p.setError(r.status());
                return;
            }
            fn(r.value()).consume([p = std::move(p)](pravega::Result<U> inner) mutable {
                std::move(p).complete(std::move(inner));
            });
        });
        return fut;
    }

    using ValueType = T;

    static Future<T> ready(T value) {
        Promise<T> p;
        p.setValue(std::move(value));
        return p.future();
    }

    static Future<T> failed(pravega::Status s) {
        Promise<T> p;
        p.setError(std::move(s));
        return p.future();
    }

private:
    friend class Promise<T>;
    explicit Future(detail::StateRef<T> s) : state_(std::move(s)) {}

    template <typename F>
    static void deliver(F& fn, pravega::Result<T>& r, bool sole) {
        if (sole) {
            fn(std::move(r));
        } else {
            fn(pravega::Result<T>(r));
        }
    }

    detail::StateRef<T> state_;
};

template <typename T>
class Promise {
public:
    Promise() : state_(detail::StateRef<T>::make()) {}

    Future<T> future() const { return Future<T>(state_); }

    void setValue(T value) { complete(pravega::Result<T>(std::move(value))); }
    void setError(pravega::Status s) { complete(pravega::Result<T>(std::move(s))); }
    void setError(pravega::Err code, std::string msg = {}) {
        setError(pravega::Status(code, std::move(msg)));
    }

    /// Completes the promise and runs its continuations. A continuation
    /// may destroy this promise; the state stays alive until they return.
    void complete(pravega::Result<T> r) & { finish(detail::StateRef<T>(state_), std::move(r)); }
    /// The same, giving up this promise as it completes: with no Future
    /// left either, the last continuation may then take the result without
    /// a copy (`Future::consume`).
    void complete(pravega::Result<T> r) && { finish(std::move(state_), std::move(r)); }

    bool isCompleted() const { return state_->result.has_value(); }

private:
    /// Runs the continuations in registration order. `state` holds one
    /// reference throughout, so a use count of 1 means no other Promise or
    /// Future can read the result afterwards.
    static void finish(detail::StateRef<T> state, pravega::Result<T> r) {
        assert(!state->result && "promise completed twice");
        state->result.emplace(std::move(r));
        auto head = std::move(state->first);
        if (!head) return;
        auto tail = std::move(state->rest);
        state->rest.clear();
        head(*state->result, tail.empty() && state.useCount() == 1);
        for (size_t i = 0; i < tail.size(); ++i) {
            tail[i](*state->result, i + 1 == tail.size() && state.useCount() == 1);
        }
    }

    detail::StateRef<T> state_;
};

/// Completes (with Unit) once all `futures` have completed, regardless of
/// their individual outcomes; callers keep copies to inspect results.
template <typename T>
Future<Unit> whenAll(const std::vector<Future<T>>& futures) {
    if (futures.empty()) return Future<Unit>::ready(Unit{});
    auto remaining = std::make_shared<size_t>(futures.size());
    Promise<Unit> p;
    auto fut = p.future();
    for (const auto& f : futures) {
        f.onComplete([remaining, p](const pravega::Result<T>&) mutable {
            if (--*remaining == 0) p.setValue(Unit{});
        });
    }
    return fut;
}

}  // namespace pravega::sim
