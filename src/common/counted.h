// Counted<T>: a handle to one heap object shared by reference count.
//
// The count and the object share one allocation, and the count is a plain
// integer, not an atomic: the simulation is single-threaded, and these
// handles are copied on every hop of the hot path. `sim::Lifetime`'s
// generation, a future's state and a `SharedBuf`'s bytes all live behind
// one. A moved-from handle is empty and may only be destroyed or assigned.
#pragma once

#include <cstdint>
#include <utility>

namespace pravega {

template <typename T>
class Counted {
public:
    Counted() = default;

    template <typename... Args>
    static Counted make(Args&&... args) {
        return Counted(new Block{1, T(std::forward<Args>(args)...)});
    }

    Counted(const Counted& o) noexcept : b_(o.b_) {
        if (b_ != nullptr) ++b_->refs;
    }
    Counted(Counted&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
    Counted& operator=(Counted o) noexcept {
        std::swap(b_, o.b_);
        return *this;
    }
    ~Counted() {
        if (b_ != nullptr && --b_->refs == 0) destroy(b_);
    }

    T& operator*() const { return b_->value; }
    T* operator->() const { return &b_->value; }
    explicit operator bool() const { return b_ != nullptr; }

    /// Handles sharing the object, this one included.
    uint32_t useCount() const { return b_->refs; }

private:
    struct Block {
        uint32_t refs;
        T value;
    };
    explicit Counted(Block* b) : b_(b) {}
    // Out of line: inlined, GCC's -Wuse-after-free cannot see that a count
    // reaching zero means no other handle remains.
    [[gnu::noinline]] static void destroy(Block* b) { delete b; }

    Block* b_ = nullptr;
};

}  // namespace pravega
