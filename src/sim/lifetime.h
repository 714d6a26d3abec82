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
// allocation each Lifetime makes; `reset()` is a plain increment. That
// allocation is reference-counted with a plain integer, not an atomic: the
// simulation is single-threaded, and guards are copied on every network hop
// and timer of the hot path. This is the seastar gate/abort_source idiom
// behind a `stop()` lifecycle, reduced to a single-threaded simulation.
#pragma once

#include <cstdint>
#include <utility>

namespace pravega::sim {

class Lifetime {
    struct State {
        uint64_t gen = 0;
        uint64_t refs = 1;  // the Lifetime plus its live tokens
    };
    static void release(State* s) {
        if (s != nullptr && --s->refs == 0) delete s;
    }

public:
    /// A view of one generation, for continuations that must still act when
    /// the owner is gone (fail a caller's promise instead of dropping it).
    /// A moved-from token may only be destroyed.
    class Token {
    public:
        Token(const Token& o) : s_(o.s_), at_(o.at_) { ++s_->refs; }
        Token(Token&& o) noexcept : s_(std::exchange(o.s_, nullptr)), at_(o.at_) {}
        Token& operator=(const Token&) = delete;
        ~Token() { release(s_); }

        bool alive() const { return s_->gen == at_; }

    private:
        friend class Lifetime;
        Token(State* s, uint64_t at) : s_(s), at_(at) { ++s_->refs; }
        State* s_;
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
    ~Lifetime() {
        ++s_->gen;
        release(s_);
    }

    template <typename F>
    Guarded<F> guard(F fn) const {
        return Guarded<F>(token(), std::move(fn));
    }

    Token token() const { return Token(s_, s_->gen); }

    /// Voids every guard and token made so far.
    void reset() { ++s_->gen; }

private:
    State* s_ = new State;
};

}  // namespace pravega::sim
