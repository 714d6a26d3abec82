// Tests for the LTS chunk-storage backends: semantics shared across all
// three, the codec decorator (compression + checksums), the archive tier,
// plus timing behaviour of the simulated object store.
#include <gtest/gtest.h>

#include "common/hash.h"
#include "lts/archive_tier.h"
#include "lts/chunk_codec.h"
#include "lts/chunk_storage.h"
#include "lts/fault_injection.h"
#include "sim/machine.h"
#include "sim/random.h"

namespace pravega::lts {
namespace {

template <typename T>
T waitValue(sim::Machine& exec, sim::Future<T> fut) {
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    EXPECT_TRUE(fut.result().isOk()) << fut.result().status().toString();
    return fut.result().value();
}

template <typename T>
Result<T> waitResult(sim::Machine& exec, sim::Future<T> fut) {
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    return fut.result();
}

Status waitStatus(sim::Machine& exec, sim::Future<sim::Unit> fut) {
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    return fut.result().status();
}

// Shared semantics across all three backends (parameterized conformance
// suite). NoOp discards payload bytes by design, so content assertions are
// gated on dataFidelity(); every size, error-code, and offset-contract
// assertion applies to it unchanged.
enum class Backend { InMemory, Simulated, NoOp };

class ChunkStorageSemantics : public ::testing::TestWithParam<Backend> {
protected:
    void SetUp() override {
        switch (GetParam()) {
            case Backend::InMemory:
                storage_ = std::make_unique<InMemoryChunkStorage>();
                break;
            case Backend::Simulated:
                storage_ = std::make_unique<SimulatedObjectStorage>(
                    exec_, sim::ObjectStoreModel::Config{});
                break;
            case Backend::NoOp:
                storage_ = std::make_unique<NoOpChunkStorage>();
                break;
        }
    }
    bool dataFidelity() const { return GetParam() != Backend::NoOp; }

    sim::Machine exec_;
    std::unique_ptr<ChunkStorage> storage_;
};

TEST_P(ChunkStorageSemantics, CreateAppendReadRoundTrip) {
    EXPECT_TRUE(waitStatus(exec_, storage_->create("chunk-1")).isOk());
    EXPECT_TRUE(waitStatus(exec_, storage_->append("chunk-1", SharedBuf(toBytes("hello ")))).isOk());
    EXPECT_TRUE(waitStatus(exec_, storage_->append("chunk-1", SharedBuf(toBytes("world")))).isOk());
    auto data = waitValue(exec_, storage_->read("chunk-1", 0, 100));
    EXPECT_EQ(data.size(), 11u);
    auto part = waitValue(exec_, storage_->read("chunk-1", 6, 5));
    EXPECT_EQ(part.size(), 5u);
    if (dataFidelity()) {
        EXPECT_EQ(toString(data.view()), "hello world");
        EXPECT_EQ(toString(part.view()), "world");
    }
}

TEST_P(ChunkStorageSemantics, OutOfRangeReadContract) {
    waitStatus(exec_, storage_->create("c"));
    waitStatus(exec_, storage_->append("c", SharedBuf(toBytes("hello"))));
    // offset == size: empty buffer, success.
    auto atEnd = waitResult(exec_, storage_->read("c", 5, 10));
    ASSERT_TRUE(atEnd.isOk()) << atEnd.status().toString();
    EXPECT_EQ(atEnd.value().size(), 0u);
    // offset > size: BadOffset.
    EXPECT_EQ(waitResult(exec_, storage_->read("c", 6, 1)).code(), Err::BadOffset);
    // length past EOF: clamped short read.
    auto tail = waitResult(exec_, storage_->read("c", 2, 100));
    ASSERT_TRUE(tail.isOk());
    EXPECT_EQ(tail.value().size(), 3u);
    if (dataFidelity()) {
        EXPECT_EQ(toString(tail.value().view()), "llo");
    }
}

TEST_P(ChunkStorageSemantics, ReadMissingChunkFails) {
    EXPECT_EQ(waitResult(exec_, storage_->read("ghost", 0, 1)).code(), Err::NotFound);
}

TEST_P(ChunkStorageSemantics, CreateDuplicateFails) {
    waitStatus(exec_, storage_->create("c"));
    EXPECT_EQ(waitStatus(exec_, storage_->create("c")).code(), Err::AlreadyExists);
}

TEST_P(ChunkStorageSemantics, AppendToMissingChunkFails) {
    EXPECT_EQ(waitStatus(exec_, storage_->append("nope", SharedBuf(toBytes("x")))).code(),
              Err::NotFound);
}

TEST_P(ChunkStorageSemantics, StatReportsLength) {
    waitStatus(exec_, storage_->create("c"));
    waitStatus(exec_, storage_->append("c", SharedBuf(toBytes("12345"))));
    auto info = storage_->stat("c");
    ASSERT_TRUE(info.isOk());
    EXPECT_EQ(info.value().length, 5u);
    EXPECT_EQ(storage_->stat("missing").code(), Err::NotFound);
}

TEST_P(ChunkStorageSemantics, RemoveDeletes) {
    waitStatus(exec_, storage_->create("c"));
    waitStatus(exec_, storage_->append("c", SharedBuf(toBytes("abc"))));
    EXPECT_TRUE(waitStatus(exec_, storage_->remove("c")).isOk());
    EXPECT_EQ(storage_->stat("c").code(), Err::NotFound);
    EXPECT_EQ(waitStatus(exec_, storage_->remove("c")).code(), Err::NotFound);
}

INSTANTIATE_TEST_SUITE_P(Backends, ChunkStorageSemantics,
                         ::testing::Values(Backend::InMemory, Backend::Simulated,
                                           Backend::NoOp));

// ----------------------------------------------------- extent-store tests

/// Bytes 0..n-1 of a fixed pattern, so any misplaced byte shows.
Bytes pattern(size_t from, size_t n) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>((from + i) * 7 + 3);
    return out;
}

/// A chunk of three extents: [0,100) [100,150) [150,400), the middle one
/// appended as a two-fragment chain.
class ExtentStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        waitStatus(exec_, mem_.create("c"));
        waitStatus(exec_, mem_.append("c", BufChain(pattern(0, 100))));
        BufChain two(pattern(100, 20));
        two.append(pattern(120, 30));
        waitStatus(exec_, mem_.append("c", std::move(two)));
        waitStatus(exec_, mem_.append("c", BufChain(pattern(150, 250))));
    }
    void expectRead(uint64_t offset, uint64_t length, size_t want) {
        SCOPED_TRACE("read at " + std::to_string(offset) + " for " + std::to_string(length));
        auto got = waitValue(exec_, mem_.read("c", offset, length));
        ASSERT_EQ(got.size(), want);
        EXPECT_EQ(Bytes(got.view().begin(), got.view().end()),
                  pattern(static_cast<size_t>(offset), want));
    }

    sim::Machine exec_;
    InMemoryChunkStorage mem_;
};

TEST_F(ExtentStoreTest, ReadsInsideOneExtent) {
    expectRead(10, 50, 50);
    expectRead(110, 30, 30);  // inside the two-fragment append
    expectRead(200, 100, 100);
}

TEST_F(ExtentStoreTest, ReadsAcrossExtents) {
    expectRead(90, 20, 20);    // two extents
    expectRead(90, 100, 100);  // three extents
    expectRead(0, 400, 400);   // the whole chunk
    expectRead(0, 10000, 400);
}

TEST_F(ExtentStoreTest, ReadsOnExtentBoundaries) {
    expectRead(100, 50, 50);   // exactly the middle extent
    expectRead(0, 100, 100);   // ends exactly on a boundary
    expectRead(100, 51, 51);   // starts on a boundary, crosses the next
    expectRead(150, 250, 250); // starts on the last boundary, ends at EOF
    expectRead(149, 1, 1);
    expectRead(150, 1, 1);
}

TEST_F(ExtentStoreTest, EofAndPastTheEnd) {
    expectRead(400, 10, 0);
    expectRead(400, 0, 0);
    expectRead(20, 0, 0);
    EXPECT_EQ(waitResult(exec_, mem_.read("c", 401, 1)).code(), Err::BadOffset);
}

TEST_F(ExtentStoreTest, SliceOutlivesRemove) {
    auto inside = waitValue(exec_, mem_.read("c", 160, 40));
    auto across = waitValue(exec_, mem_.read("c", 50, 100));
    EXPECT_TRUE(waitStatus(exec_, mem_.remove("c")).isOk());
    EXPECT_EQ(mem_.totalBytes(), 0u);
    EXPECT_EQ(Bytes(inside.view().begin(), inside.view().end()), pattern(160, 40));
    EXPECT_EQ(Bytes(across.view().begin(), across.view().end()), pattern(50, 100));
}

TEST_F(ExtentStoreTest, AppendCopiesOutsideBufstats) {
    // The store's one media copy is a terminal write, not a buffer-layer
    // copy (common/buf_stats.h); reads hand out slices or one gather.
    bufstats::reset();
    waitStatus(exec_, mem_.append("c", BufChain(pattern(399, 64)).share(1, 62)));
    waitValue(exec_, mem_.read("c", 0, 463));
    EXPECT_EQ(bufstats::bytesCopied, 0u);
    EXPECT_EQ(bufstats::copyOps, 0u);
    expectRead(399, 64, 63);
}

TEST_F(ExtentStoreTest, AdoptsEveryFragmentWithoutCopy) {
    // Each fragment of an appended chain becomes an extent as it is, partial
    // slices and spare capacity included: the store holds the appender's
    // bytes, never a copy of them.
    Bytes grown = pattern(400, 64);
    grown.reserve(256);  // growth slack behind the first fragment
    const SharedBuf first(std::move(grown));
    const SharedBuf backing(pattern(463, 66));
    BufChain chain(first);
    chain.append(backing.slice(1, 64));
    bufstats::reset();
    waitStatus(exec_, mem_.append("c", std::move(chain)));
    EXPECT_EQ(bufstats::bytesCopied, 0u);
    EXPECT_EQ(bufstats::storeBytesCopied, 0u);
    // A read inside one fragment is a slice of that fragment.
    EXPECT_EQ(waitValue(exec_, mem_.read("c", 400, 64)).data(), first.data());
    EXPECT_EQ(waitValue(exec_, mem_.read("c", 470, 20)).data(), backing.data() + 7);
    EXPECT_EQ(bufstats::storeBytesCopied, 0u);
    // A read across them returns the same bytes, gathered once.
    expectRead(440, 60, 60);
    EXPECT_EQ(bufstats::storeBytesCopied, 60u);
}

TEST(SimulatedObjectStorageTest, TransfersTakeModelTime) {
    sim::Machine exec;
    sim::ObjectStoreModel::Config cfg;
    cfg.opLatency = sim::msec(8);
    SimulatedObjectStorage storage(exec, cfg);
    storage.create("c");
    exec.runUntilIdle();
    sim::TimePoint start = exec.now();
    auto fut = storage.append("c", SharedBuf(Bytes(1024, 0)));
    exec.runUntilIdle();
    EXPECT_TRUE(fut.isReady());
    EXPECT_GE(exec.now() - start, sim::msec(8));
}

TEST(SimulatedObjectStorageTest, ReportsBacklog) {
    sim::Machine exec;
    sim::ObjectStoreModel::Config cfg;
    cfg.perStreamBytesPerSec = 1024 * 1024;
    cfg.aggregateBytesPerSec = 1024 * 1024;
    cfg.maxConcurrent = 1;
    SimulatedObjectStorage storage(exec, cfg);
    storage.create("c");
    exec.runUntilIdle();
    storage.append("c", SharedBuf(Bytes(10 * 1024 * 1024, 0)));
    EXPECT_GT(storage.backlogSeconds(), 5.0);
}

TEST(NoOpChunkStorageTest, DiscardsDataButTracksSizes) {
    sim::Machine exec;
    NoOpChunkStorage storage;
    storage.create("c");
    storage.append("c", SharedBuf(toBytes("hello")));
    exec.runUntilIdle();
    EXPECT_EQ(storage.stat("c").value().length, 5u);
    EXPECT_EQ(storage.totalBytes(), 0u);  // nothing retained
    auto fut = storage.read("c", 0, 5);
    exec.runUntilIdle();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_EQ(fut.result().value().size(), 5u);  // zero-filled, right size
}

TEST(SimulatedObjectStorageTest, TailReadChargesActualBytesNotRequested) {
    // Regression: read() used to charge the timing model for the REQUESTED
    // length; a tail read near EOF then paid seconds of transfer time for
    // bytes that never existed.
    sim::Machine exec;
    sim::ObjectStoreModel::Config cfg;
    cfg.opLatency = sim::msec(8);
    cfg.perStreamBytesPerSec = 1024;  // 1 KB/s: requested-length bug = ~1 s
    cfg.aggregateBytesPerSec = 1024;
    SimulatedObjectStorage storage(exec, cfg);
    storage.create("c");
    auto wrote = storage.append("c", SharedBuf(Bytes(1024, 7)));
    exec.runUntilIdle();
    ASSERT_TRUE(wrote.result().isOk());

    sim::TimePoint start = exec.now();
    auto fut = storage.read("c", 1024 - 16, 1000);  // only 16 bytes exist
    exec.runUntilIdle();
    ASSERT_TRUE(fut.result().isOk());
    EXPECT_EQ(fut.result().value().size(), 16u);
    // 16 bytes at 1 KB/s ≈ 16 ms (+8 ms op latency); the requested 1000
    // bytes would have cost ~1 s.
    EXPECT_LT(exec.now() - start, sim::msec(200));
}

// ------------------------------------------------------------ codec tests

TEST(ChunkCodecTest, BlockRoundTripAndRawFallback) {
    Bytes scratch;
    Bytes zeros(4096, 0);  // highly compressible
    Bytes block = ChunkCodec::encodeBlock(BytesView(zeros), scratch);
    EXPECT_LT(block.size(), zeros.size() / 4);
    auto dec = ChunkCodec::decodeBlock(BytesView(block));
    ASSERT_TRUE(dec.isOk());
    EXPECT_EQ(dec.value(), zeros);

    Bytes noise(1024);  // incompressible: every byte distinct from neighbors
    for (size_t i = 0; i < noise.size(); ++i) noise[i] = static_cast<uint8_t>(i * 131 + 7);
    Bytes rawBlock = ChunkCodec::encodeBlock(BytesView(noise), scratch);
    EXPECT_EQ(rawBlock.size(), noise.size() + ChunkCodec::kHeaderBytes);
    auto rawDec = ChunkCodec::decodeBlock(BytesView(rawBlock));
    ASSERT_TRUE(rawDec.isOk());
    EXPECT_EQ(rawDec.value(), noise);
}

TEST(ChunkCodecTest, CorruptionNeverDecodes) {
    Bytes payload(512, 'x');
    payload[100] = 'y';
    Bytes scratch;
    Bytes block = ChunkCodec::encodeBlock(BytesView(payload), scratch);
    // Flip one bit at every position in turn: header, lengths, CRC, body —
    // every single-bit corruption must surface as ChecksumMismatch.
    for (size_t byte = 0; byte < block.size(); byte += 7) {
        Bytes bad = block;
        bad[byte] ^= 0x10;
        auto dec = ChunkCodec::decodeBlock(BytesView(bad));
        if (dec.isOk()) {
            // The only acceptable "ok" is the payload being bit-identical
            // (a flip in padding that cannot exist in this format).
            EXPECT_EQ(dec.value(), payload) << "corruption at byte " << byte
                                            << " decoded to WRONG data";
        } else {
            EXPECT_EQ(dec.status().code(), Err::ChecksumMismatch);
        }
    }
    // Truncation too.
    Bytes cut(block.begin(), block.begin() + block.size() / 2);
    EXPECT_EQ(ChunkCodec::decodeBlock(BytesView(cut)).status().code(),
              Err::ChecksumMismatch);
}

namespace {

/// The byte-at-a-time PackBits encoder the word-scan encoder replaced; its
/// output defines the stored format.
Bytes rleEncodeOracle(BytesView raw) {
    Bytes out;
    size_t i = 0;
    const size_t n = raw.size();
    while (i < n) {
        size_t run = 1;
        while (i + run < n && raw[i + run] == raw[i] && run < 130) ++run;
        if (run >= 3) {
            out.push_back(static_cast<uint8_t>(0x80u | (run - 3)));
            out.push_back(raw[i]);
            i += run;
            continue;
        }
        size_t start = i;
        while (i < n && i - start < 128) {
            if (i + 2 < n && raw[i] == raw[i + 1] && raw[i] == raw[i + 2]) break;
            ++i;
        }
        out.push_back(static_cast<uint8_t>(i - start - 1));
        out.insert(out.end(), raw.begin() + start, raw.begin() + i);
    }
    return out;
}

/// A seeded buffer of 0..700 bytes mixing noise, two-symbol stretches
/// (pairs and short runs) and runs whose lengths straddle the 128-byte
/// literal and 130-byte run caps and the 8-byte word.
Bytes fuzzBuffer(sim::Rng& rng) {
    static constexpr size_t kEdgeRuns[] = {1,   2,   3,   4,   7,   8,   9,   10,  11,
                                           16,  17,  125, 126, 127, 128, 129, 130, 131,
                                           132, 133, 138, 259, 260, 261, 262, 263};
    const size_t len = rng.nextBounded(701);
    Bytes b;
    while (b.size() < len) {
        switch (rng.nextBounded(3)) {
            case 0:  // noise: literal stretches across the 128 cap
                for (size_t k = 1 + rng.nextBounded(200); k > 0; --k) {
                    b.push_back(static_cast<uint8_t>(rng.next()));
                }
                break;
            case 1: {  // two symbols: pairs, triples and short runs
                const auto x = static_cast<uint8_t>(rng.next());
                for (size_t k = 1 + rng.nextBounded(40); k > 0; --k) {
                    b.push_back(rng.nextBounded(2) ? x : static_cast<uint8_t>(x + 1));
                }
                break;
            }
            default: {  // a run, often at a cap or word edge
                const size_t run = rng.nextBounded(2)
                                       ? kEdgeRuns[rng.nextBounded(std::size(kEdgeRuns))]
                                       : 1 + rng.nextBounded(300);
                b.insert(b.end(), run, static_cast<uint8_t>(rng.next()));
            }
        }
    }
    b.resize(len);
    // Vary the last two bytes: a triple (or near-triple) at the very end.
    if (len >= 3 && rng.nextBounded(4) == 0) b[len - 1] = b[len - 2];
    if (len >= 3 && rng.nextBounded(4) == 0) b[len - 2] = b[len - 3];
    return b;
}

}  // namespace

TEST(ChunkCodecTest, RleEncoderMatchesByteLoopOracle) {
    sim::Rng rng(2024);
    for (int iter = 0; iter < 100000; ++iter) {
        const Bytes raw = fuzzBuffer(rng);
        const Bytes enc = ChunkCodec::rleEncode(BytesView(raw));
        ASSERT_EQ(enc, rleEncodeOracle(BytesView(raw))) << "iteration " << iter;
        ASSERT_LE(enc.size(), ChunkCodec::rleBound(raw.size())) << "iteration " << iter;
        auto dec = ChunkCodec::rleDecode(BytesView(enc), raw.size());
        ASSERT_TRUE(dec.isOk()) << "iteration " << iter;
        ASSERT_EQ(dec.value(), raw) << "iteration " << iter;
    }
}

TEST(ChunkCodecTest, RleBoundIsTightForRunFreeInput) {
    for (size_t n : {0u, 1u, 127u, 128u, 129u, 256u, 1000u}) {
        Bytes raw(n);
        for (size_t i = 0; i < n; ++i) raw[i] = static_cast<uint8_t>(i % 2);
        EXPECT_EQ(ChunkCodec::rleEncode(BytesView(raw)).size(), ChunkCodec::rleBound(n));
    }
}

TEST(ChunkCodecTest, EncodeBlockMatchesGoldenHashes) {
    // The stored block format is frozen: these FNV-1a hashes of
    // encodeBlock's output were captured from the encoder that allocated a
    // fresh zero-filled buffer per block, and must never move. One scratch
    // serves all three, largest first, so bytes an earlier block left in
    // it cannot leak into a later one.
    Bytes compressible(64 * 1024);
    Bytes noise(64 * 1024);
    sim::Rng rng(17);
    for (size_t i = 0; i < compressible.size(); i += 128) {
        for (size_t k = 0; k < 64; ++k) compressible[i + k] = static_cast<uint8_t>(rng.next());
        std::fill_n(compressible.begin() + static_cast<ptrdiff_t>(i + 64), 64,
                    static_cast<uint8_t>(rng.next()));
    }
    for (auto& b : noise) b = static_cast<uint8_t>(rng.next());
    auto hash = [](const Bytes& b) {
        return fnv1a64(std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
    };
    Bytes scratch;
    const Bytes noiseBlock = ChunkCodec::encodeBlock(BytesView(noise), scratch);
    EXPECT_EQ(noiseBlock.size(), 65556u);
    EXPECT_EQ(hash(noiseBlock), 0xf712b5841224cc4dULL);
    const Bytes packed = ChunkCodec::encodeBlock(BytesView(compressible), scratch);
    EXPECT_EQ(packed.size(), 34319u);
    EXPECT_EQ(hash(packed), 0x0e687ed2cee19a04ULL);
    const Bytes empty = ChunkCodec::encodeBlock(BytesView(), scratch);
    EXPECT_EQ(empty.size(), ChunkCodec::kHeaderBytes);
    EXPECT_EQ(hash(empty), 0x74154fb777b43f57ULL);
    // Exact-size blocks: a store adopting one pins no spare capacity.
    EXPECT_EQ(packed.capacity(), packed.size());
    EXPECT_EQ(noiseBlock.capacity(), noiseBlock.size());
}

class CodecStorageTest : public ::testing::Test {
protected:
    sim::Machine exec_;
    InMemoryChunkStorage mem_;
    CodecChunkStorage codec_{exec_, mem_};
};

TEST_F(CodecStorageTest, RoundTripWithCompression) {
    waitStatus(exec_, codec_.create("c"));
    Bytes a(8192, 0);
    Bytes b(4096, 1);
    waitStatus(exec_, codec_.append("c", BufChain(Bytes(a))));
    waitStatus(exec_, codec_.append("c", BufChain(Bytes(b))));
    // Raw addressing: callers see segment bytes.
    auto full = waitValue(exec_, codec_.read("c", 0, 100000));
    ASSERT_EQ(full.size(), a.size() + b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), full.view().begin()));
    EXPECT_TRUE(std::equal(b.begin(), b.end(), full.view().begin() + a.size()));
    // Partial read spanning the block boundary.
    auto span = waitValue(exec_, codec_.read("c", 8000, 400));
    ASSERT_EQ(span.size(), 400u);
    for (size_t i = 0; i < 192; ++i) EXPECT_EQ(span.view()[i], 0);
    for (size_t i = 192; i < 400; ++i) EXPECT_EQ(span.view()[i], 1);
    // stat() reports RAW length; the backend holds fewer stored bytes.
    EXPECT_EQ(codec_.stat("c").value().length, a.size() + b.size());
    EXPECT_LT(mem_.totalBytes(), (a.size() + b.size()) / 4);
    EXPECT_GT(codec_.rawBytes(), codec_.storedBytes());
    EXPECT_EQ(codec_.checksumFailures(), 0u);
}

TEST_F(CodecStorageTest, MultiExtentChunkReadsBackIdentically) {
    // Each append is one block, adopted whole as one extent of the backing
    // chunk; reads inside a block are slices, reads across blocks gather.
    waitStatus(exec_, codec_.create("c"));
    Bytes all;
    for (size_t i = 0; i < 5; ++i) {
        Bytes part = pattern(all.size(), 1000 + 300 * i);
        std::fill_n(part.begin(), 200, static_cast<uint8_t>(i));  // a run to compress
        BufChain chain(Bytes(part.begin(), part.begin() + 500));
        chain.append(Bytes(part.begin() + 500, part.end()));
        waitStatus(exec_, codec_.append("c", std::move(chain)));
        pravega::append(all, BytesView(part));
    }
    EXPECT_LT(mem_.totalBytes(), all.size());
    for (auto [offset, length] : {std::pair<size_t, size_t>{0, all.size()},
                                  {10, 900},
                                  {1000, 1300},
                                  {950, 2000},
                                  {all.size() - 5, 100}}) {
        auto got = waitValue(exec_, codec_.read("c", offset, length));
        const size_t want = std::min(length, all.size() - offset);
        ASSERT_EQ(got.size(), want) << "offset " << offset;
        EXPECT_TRUE(std::equal(got.view().begin(), got.view().end(),
                               all.begin() + static_cast<ptrdiff_t>(offset)))
            << "offset " << offset;
    }
    EXPECT_EQ(codec_.checksumFailures(), 0u);
}

TEST_F(CodecStorageTest, OutOfRangeContractInRawSpace) {
    waitStatus(exec_, codec_.create("c"));
    waitStatus(exec_, codec_.append("c", BufChain(Bytes(100, 5))));
    auto atEnd = waitResult(exec_, codec_.read("c", 100, 10));
    ASSERT_TRUE(atEnd.isOk());
    EXPECT_EQ(atEnd.value().size(), 0u);
    EXPECT_EQ(waitResult(exec_, codec_.read("c", 101, 1)).code(), Err::BadOffset);
    auto clamped = waitValue(exec_, codec_.read("c", 90, 100));
    EXPECT_EQ(clamped.size(), 10u);
}

TEST(CodecEndToEndTest, InjectedBitFlipSurfacesAsChecksumMismatch) {
    // Full stack: codec(fault(mem)). The fault layer flips one stored bit —
    // silent corruption a backend cannot see. The read must fail with
    // ChecksumMismatch, count on lts.checksum_failures, and NEVER return
    // corrupted bytes as data.
    sim::Machine exec;
    InMemoryChunkStorage mem;
    FaultInjectionChunkStorage fault(exec, mem, FaultInjectionChunkStorage::Config{});
    CodecChunkStorage codec(exec, fault);

    Bytes payload(2048, 'd');
    waitStatus(exec, codec.create("c"));
    waitStatus(exec, codec.append("c", BufChain(Bytes(payload))));

    // Flip a bit deep inside the stored body (past the 20-byte header).
    fault.corruptNextReads(1, /*bitOffset=*/(ChunkCodec::kHeaderBytes + 3) * 8 + 2);
    auto bad = waitResult(exec, codec.read("c", 0, 2048));
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), Err::ChecksumMismatch);
    EXPECT_EQ(codec.checksumFailures(), 1u);
    EXPECT_EQ(fault.corruptedReads(), 1u);

    // And a flip in the header (magic) — also ChecksumMismatch, not IoError.
    fault.corruptNextReads(1, /*bitOffset=*/1);
    EXPECT_EQ(waitResult(exec, codec.read("c", 0, 2048)).code(), Err::ChecksumMismatch);
    EXPECT_EQ(codec.checksumFailures(), 2u);

    // The stored bytes were never damaged (corruption was on the read path):
    // a clean retry returns the exact original payload.
    auto good = waitValue(exec, codec.read("c", 0, 2048));
    ASSERT_EQ(good.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), good.view().begin()));
}

// ----------------------------------------------------------- archive tests

class ArchiveTierTest : public ::testing::Test {
protected:
    ArchiveTierTest() : archive_(exec_, mem_, config()) {}
    static ArchiveTierChunkStorage::Config config() {
        ArchiveTierChunkStorage::Config cfg;
        cfg.minIdle = sim::sec(1);
        cfg.scanInterval = 0;  // tests drive scanNow() explicitly
        return cfg;
    }
    sim::Machine exec_;
    InMemoryChunkStorage mem_;
    ArchiveTierChunkStorage archive_;
};

TEST_F(ArchiveTierTest, IdleChunkMigratesAndReadsIdentically) {
    Bytes payload(4096);
    for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i);
    waitStatus(exec_, archive_.create("seg-1-0"));
    waitStatus(exec_, archive_.append("seg-1-0", BufChain(Bytes(payload))));
    EXPECT_EQ(archive_.archivedChunks(), 0u);

    exec_.runFor(sim::sec(2));  // idle past minIdle
    archive_.scanNow();
    exec_.runUntilIdle();
    EXPECT_EQ(archive_.archivedChunks(), 1u);
    // Primary copy is gone; the chunk is still fully addressable.
    EXPECT_EQ(mem_.stat("seg-1-0").code(), Err::NotFound);
    EXPECT_EQ(archive_.stat("seg-1-0").value().length, payload.size());

    // The migration's tape write mounted the chunk's cartridge (one mount).
    EXPECT_EQ(archive_.tape().mounts(), 1u);

    sim::TimePoint start = exec_.now();
    auto data = waitValue(exec_, archive_.read("seg-1-0", 0, payload.size()));
    ASSERT_EQ(data.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), data.view().begin()));
    // Deep-read first byte: at least the seek (the cartridge is still
    // mounted from the migration write — affinity, no second mount).
    EXPECT_GE(exec_.now() - start, archive_.config().tape.seekLatency);
    EXPECT_EQ(archive_.tape().mounts(), 1u);
    EXPECT_EQ(archive_.archiveReads(), 1u);
}

TEST_F(ArchiveTierTest, HotChunkStaysPrimary) {
    waitStatus(exec_, archive_.create("seg-1-0"));
    waitStatus(exec_, archive_.append("seg-1-0", BufChain(Bytes(100, 1))));
    archive_.scanNow();  // not idle yet
    exec_.runUntilIdle();
    EXPECT_EQ(archive_.archivedChunks(), 0u);
    EXPECT_TRUE(mem_.stat("seg-1-0").isOk());
}

TEST_F(ArchiveTierTest, SizePressureMigratesBeforeIdle) {
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.primaryCapacityBytes = 1024;  // tiny cap
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    waitStatus(exec, arch.create("seg-2-0"));
    waitStatus(exec, arch.append("seg-2-0", BufChain(Bytes(4096, 9))));
    // Not idle enough for the age policy (minIdle 1s) but past the pressure
    // floor: the size policy may take it.
    exec.runFor(sim::msec(200));
    arch.scanNow();  // over capacity
    exec.runUntilIdle();
    EXPECT_EQ(arch.archivedChunks(), 1u);
}

TEST_F(ArchiveTierTest, SizePressurePicksLeastRecentlyAppendedFirst) {
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.primaryCapacityBytes = 1024;
    cfg.maxMigrationsPerScan = 1;  // one victim per scan: exposes ordering
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    // "zz" sorts after "aa" by name but was appended FIRST — the victim must
    // be chosen by last-append age, not by map order.
    waitStatus(exec, arch.create("zz-1-0"));
    waitStatus(exec, arch.append("zz-1-0", BufChain(Bytes(2048, 1))));
    exec.runFor(sim::msec(300));
    waitStatus(exec, arch.create("aa-1-0"));
    waitStatus(exec, arch.append("aa-1-0", BufChain(Bytes(2048, 2))));
    exec.runFor(sim::msec(300));
    arch.scanNow();
    exec.runUntilIdle();
    EXPECT_EQ(arch.archivedChunks(), 1u);
    EXPECT_EQ(mem.stat("zz-1-0").code(), Err::NotFound);  // oldest went first
    EXPECT_TRUE(mem.stat("aa-1-0").isOk());
}

TEST_F(ArchiveTierTest, SizePressureSparesActivelyWrittenChunks) {
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.primaryCapacityBytes = 1024;
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    waitStatus(exec, arch.create("seg-4-0"));
    waitStatus(exec, arch.append("seg-4-0", BufChain(Bytes(4096, 9))));
    // Over capacity, but the chunk was appended this very tick (inside the
    // pressureMinIdle window): it must not become a migration victim.
    arch.scanNow();
    exec.runUntilIdle();
    EXPECT_EQ(arch.archivedChunks(), 0u);
    EXPECT_TRUE(mem.stat("seg-4-0").isOk());
}

TEST_F(ArchiveTierTest, AppendDuringMigrationIsNotLost) {
    // Regression (lost-write race): an append that lands between the
    // migration's primary-read snapshot and the tape-write completion used
    // to be destroyed — routing flipped to the stale archive copy and the
    // primary copy (holding the new bytes) was removed.
    Bytes first(4096);
    for (size_t i = 0; i < first.size(); ++i) first[i] = static_cast<uint8_t>(i);
    Bytes second(1024);
    for (size_t i = 0; i < second.size(); ++i) second[i] = static_cast<uint8_t>(i + 7);

    waitStatus(exec_, archive_.create("seg-5-0"));
    waitStatus(exec_, archive_.append("seg-5-0", BufChain(Bytes(first))));
    exec_.runFor(sim::sec(2));  // idle past minIdle
    archive_.scanNow();
    // The migration snapshot is taken; its tape write is still in flight.
    // This append routes to the primary tier and must survive.
    auto racing = archive_.append("seg-5-0", BufChain(Bytes(second)));
    exec_.runUntilIdle();
    EXPECT_TRUE(racing.isReady() && racing.result().isOk());
    // The migration aborted: the chunk stays primary with ALL bytes.
    EXPECT_EQ(archive_.archivedChunks(), 0u);
    ASSERT_TRUE(mem_.stat("seg-5-0").isOk());
    EXPECT_EQ(mem_.stat("seg-5-0").value().length, first.size() + second.size());

    // Once quiet again, a later scan migrates the grown chunk whole.
    exec_.runFor(sim::sec(2));
    archive_.scanNow();
    exec_.runUntilIdle();
    EXPECT_EQ(archive_.archivedChunks(), 1u);
    EXPECT_EQ(mem_.stat("seg-5-0").code(), Err::NotFound);
    auto data = waitValue(exec_, archive_.read("seg-5-0", 0, first.size() + second.size()));
    ASSERT_EQ(data.size(), first.size() + second.size());
    EXPECT_TRUE(std::equal(first.begin(), first.end(), data.view().begin()));
    EXPECT_TRUE(std::equal(second.begin(), second.end(),
                           data.view().begin() + first.size()));
}

TEST_F(ArchiveTierTest, SegmentChunksShareACartridge) {
    // Chunks of one segment hash to one cartridge: back-to-back reads pay
    // one mount total (the catch-up read pattern).
    for (int i = 0; i < 3; ++i) {
        std::string name = "seg-7-" + std::to_string(i * 1000);
        waitStatus(exec_, archive_.create(name));
        waitStatus(exec_, archive_.append(name, BufChain(Bytes(512, 3))));
    }
    exec_.runFor(sim::sec(2));
    archive_.scanNow();
    exec_.runUntilIdle();
    ASSERT_EQ(archive_.archivedChunks(), 3u);
    uint64_t mountsAfterMigration = archive_.tape().mounts();
    for (int i = 0; i < 3; ++i) {
        waitValue(exec_, archive_.read("seg-7-" + std::to_string(i * 1000), 0, 512));
    }
    // Same cartridge stays mounted across all three reads.
    EXPECT_EQ(archive_.tape().mounts(), mountsAfterMigration);
}

TEST_F(ArchiveTierTest, CompactedChunkSharesItsSegmentsCartridge) {
    // A compacted chunk keeps its segment's cartridge: with one drive,
    // migrating a plain chunk and a merged one of the same segment pays
    // one mount. (Hashing up to the last '-' put the merged chunk, whose
    // name ends in "-c<gen>", on the cartridge of "seg-<id>-<offset>".)
    ArchiveTierChunkStorage::Config cfg = config();
    cfg.tape.drives = 1;
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage arch(exec, mem, cfg);
    for (const char* name : {"seg-0000000000000007-000000004096",
                             "seg-0000000000000007-000000000000-c1"}) {
        waitStatus(exec, arch.create(name));
        waitStatus(exec, arch.append(name, BufChain(Bytes(512, 3))));
    }
    exec.runFor(sim::sec(2));
    arch.scanNow();
    exec.runUntilIdle();
    ASSERT_EQ(arch.archivedChunks(), 2u);
    EXPECT_EQ(arch.tape().mounts(), 1u);
}

TEST_F(ArchiveTierTest, MultiExtentChunkMigratesByteIdentical) {
    // Migration reads the whole primary chunk (a gather across its extents)
    // and stores it on tape as one extent.
    Bytes all;
    waitStatus(exec_, archive_.create("seg-8-0"));
    for (size_t i = 0; i < 4; ++i) {
        Bytes part = pattern(all.size(), 700 + 100 * i);
        waitStatus(exec_, archive_.append("seg-8-0", BufChain(Bytes(part))));
        pravega::append(all, BytesView(part));
    }
    exec_.runFor(sim::sec(2));
    archive_.scanNow();
    exec_.runUntilIdle();
    ASSERT_EQ(archive_.archivedChunks(), 1u);
    EXPECT_EQ(mem_.stat("seg-8-0").code(), Err::NotFound);
    auto whole = waitValue(exec_, archive_.read("seg-8-0", 0, all.size()));
    EXPECT_EQ(Bytes(whole.view().begin(), whole.view().end()), all);
    auto mid = waitValue(exec_, archive_.read("seg-8-0", 650, 900));
    EXPECT_TRUE(std::equal(mid.view().begin(), mid.view().end(), all.begin() + 650));
    EXPECT_EQ(mid.size(), 900u);
}

TEST(ArchiveCodecStackTest, CompressedChunksMigrateAndVerify) {
    // The cluster's stack order: codec(archive(mem)). Chunks migrate in
    // stored (compressed) form; reads decompress + CRC-verify tape bytes.
    sim::Machine exec;
    InMemoryChunkStorage mem;
    ArchiveTierChunkStorage::Config acfg;
    acfg.minIdle = sim::sec(1);
    acfg.scanInterval = 0;
    ArchiveTierChunkStorage arch(exec, mem, acfg);
    CodecChunkStorage codec(exec, arch);

    Bytes payload(16384, 0);
    for (size_t i = 0; i < payload.size(); i += 100) payload[i] = static_cast<uint8_t>(i);
    waitStatus(exec, codec.create("seg-3-0"));
    waitStatus(exec, codec.append("seg-3-0", BufChain(Bytes(payload))));
    exec.runFor(sim::sec(2));
    arch.scanNow();
    exec.runUntilIdle();
    ASSERT_EQ(arch.archivedChunks(), 1u);
    // Tape moved STORED (compressed) bytes, far fewer than raw.
    EXPECT_LT(arch.archivedBytes(), payload.size() / 4);

    auto data = waitValue(exec, codec.read("seg-3-0", 0, payload.size()));
    ASSERT_EQ(data.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), data.view().begin()));
    EXPECT_EQ(codec.checksumFailures(), 0u);
}

}  // namespace
}  // namespace pravega::lts
