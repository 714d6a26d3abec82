// Owner lifetime for continuations that capture `this`.
//
// A component that hands such a callback to the machine, the network or a
// Future holds a `Lifetime` and wraps the callback in `guard(fn)`. The guard
// runs `fn` only while the Lifetime is still at the generation the guard was
// made in. `reset()` (stop, crash, reconnect, timer re-arm) and the
// destructor both start a new generation, so every earlier guard becomes a
// no-op. A guard never cancels the queue entry it rides in: the DES event
// still fires at the same virtual time and only the body is skipped, so
// guarding a callback changes no schedule and no `runUntilIdle` return point.
//
// The generation counter is shared with the guards through the one
// allocation each Lifetime makes, a `Counted` handle: a plain count, not an
// atomic, since the simulation is single-threaded and guards are copied on
// every network hop and timer of the hot path. `reset()` is a plain
// increment. This is the seastar gate/abort_source idiom behind a `stop()`
// lifecycle, reduced to a single-threaded simulation.
#pragma once

#include <cstdint>
#include <utility>

#include "common/counted.h"

namespace pravega::sim {

class Lifetime {
public:
    /// A view of one generation, for continuations that must still act when
    /// the owner is gone (fail a caller's promise instead of dropping it).
    /// A moved-from token may only be destroyed.
    class Token {
    public:
        Token(const Token&) = default;
        Token(Token&&) noexcept = default;
        Token& operator=(const Token&) = delete;

        bool alive() const { return *gen_ == at_; }

    private:
        friend class Lifetime;
        Token(Counted<uint64_t> gen, uint64_t at) : gen_(std::move(gen)), at_(at) {}
        Counted<uint64_t> gen_;
        uint64_t at_;
    };

    /// `fn` behind a generation check; forwards its arguments to `fn` only
    /// while the generation it was made in is current.
    template <typename F>
    class Guarded {
    public:
        template <typename... Args>
        void operator()(Args&&... args) const {
            if (token_.alive()) fn_(std::forward<Args>(args)...);
        }

    private:
        friend class Lifetime;
        Guarded(Token token, F fn) : token_(std::move(token)), fn_(std::move(fn)) {}
        Token token_;
        mutable F fn_;
    };

    Lifetime() = default;
    Lifetime(const Lifetime&) = delete;
    Lifetime& operator=(const Lifetime&) = delete;
    ~Lifetime() { ++*gen_; }

    template <typename F>
    Guarded<F> guard(F fn) const {
        return Guarded<F>(token(), std::move(fn));
    }

    Token token() const { return Token(gen_, *gen_); }

    /// Voids every guard and token made so far.
    void reset() { ++*gen_; }

private:
    Counted<uint64_t> gen_ = Counted<uint64_t>::make(0);
};

}  // namespace pravega::sim
