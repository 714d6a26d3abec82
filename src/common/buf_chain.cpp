#include "common/buf_chain.h"

#include <cassert>
#include <cstring>

namespace pravega {

void BufChain::append(SharedBuf buf) {
    if (buf.empty()) return;
    size_ += buf.size();
    frags_.push_back(std::move(buf));
}

void BufChain::append(BufChain other) {
    if (other.empty()) return;
    size_ += other.size_;
    if (frags_.empty()) {
        frags_ = std::move(other.frags_);
        return;
    }
    // No exact reserve here: it would reallocate on every call, making a
    // loop of chain appends quadratic; push_back grows geometrically.
    for (auto& f : other.frags_) frags_.push_back(std::move(f));
}

BufChain BufChain::share(size_t offset, size_t len) const {
    BufChain out;
    if (offset >= size_) return out;
    len = std::min(len, size_ - offset);
    if (len == 0) return out;
    size_t skip = offset;
    for (const auto& frag : frags_) {
        if (skip >= frag.size()) {
            skip -= frag.size();
            continue;
        }
        size_t take = std::min(len, frag.size() - skip);
        out.append(frag.slice(skip, take));
        skip = 0;
        len -= take;
        if (len == 0) break;
    }
    return out;
}

void BufChain::trimFront(size_t n) {
    if (n >= size_) {
        clear();
        return;
    }
    size_ -= n;
    size_t drop = 0;
    while (n > 0 && n >= frags_[drop].size()) {
        n -= frags_[drop].size();
        ++drop;
    }
    if (drop > 0) frags_.erase(frags_.begin(), frags_.begin() + static_cast<ptrdiff_t>(drop));
    if (n > 0) frags_.front() = frags_.front().slice(n, frags_.front().size() - n);
}

void BufChain::trimBack(size_t n) {
    if (n >= size_) {
        clear();
        return;
    }
    size_ -= n;
    while (n > 0 && n >= frags_.back().size()) {
        n -= frags_.back().size();
        frags_.pop_back();
    }
    if (n > 0) frags_.back() = frags_.back().slice(0, frags_.back().size() - n);
}

void BufChain::clear() {
    frags_.clear();
    size_ = 0;
}

SharedBuf BufChain::linearize() const {
    if (frags_.empty()) return SharedBuf();
    if (frags_.size() == 1) return frags_[0];
    return SharedBuf(toBytes());
}

Bytes BufChain::toBytes() const {
    Bytes out;
    out.reserve(size_);
    for (const auto& frag : frags_) {
        out.insert(out.end(), frag.view().begin(), frag.view().end());
    }
    bufstats::recordCopy(size_);
    return out;
}

void BufChain::copyOut(size_t pos, size_t len, uint8_t* dst) const {
    gather(pos, len, dst);
    bufstats::recordCopy(len);
}

bool BufChain::peekU32(size_t pos, uint32_t& out) const {
    if (pos + 4 > size_ || pos > size_) return false;
    uint8_t raw[4];
    gather(pos, 4, raw);
    std::memcpy(&out, raw, 4);
    return true;
}

void BufChain::gather(size_t pos, size_t len, uint8_t* dst) const {
    assert(pos + len <= size_ && pos <= size_);
    if (len == 0) return;
    size_t skip = pos;
    for (const auto& frag : frags_) {
        if (skip >= frag.size()) {
            skip -= frag.size();
            continue;
        }
        size_t take = std::min(len, frag.size() - skip);
        std::memcpy(dst, frag.data() + skip, take);
        dst += take;
        skip = 0;
        len -= take;
        if (len == 0) return;
    }
    assert(len == 0 && "gather ran past the chain");
}

}  // namespace pravega
