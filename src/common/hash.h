// Hashing: FNV-1a 64-bit, CRC-32 and the routing-key hash h(k) ∈ [0, 1).
//
// Pravega maps routing keys onto the unit interval; stream segments own
// disjoint sub-ranges of [0,1) (§2.1). The same family is used for the
// stateless segment → segment-container assignment (§2.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pravega {

/// FNV-1a 64-bit over an arbitrary byte string.
uint64_t fnv1a64(std::string_view data);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range. Used for
/// the LTS chunk-codec block checksums; `seed` chains partial updates
/// (pass a previous result to continue a running CRC). Two kernels, one
/// set of values (those of the classic byte loop): on x86 hosts whose CPU
/// has PCLMULQDQ and SSE4.1 (checked once, at the first call), inputs of
/// 64 B and more fold 64 B per step by carry-less multiplication and
/// leave only a sub-16 B tail to the tables. Everything else runs
/// slicing-by-16: sixteen 256-entry tables (16 KiB) consume two 8-byte
/// words per step, with a byte-wise tail.
uint32_t crc32(const uint8_t* data, size_t len, uint32_t seed = 0);

namespace detail {

/// The slicing-by-16 kernel alone, at every length (same values as
/// `crc32`); lets tests and benches reach it on a folding host.
uint32_t crc32Table(const uint8_t* data, size_t len, uint32_t seed = 0);

/// True when `crc32` folds with PCLMULQDQ on this host.
bool crc32Folds();

}  // namespace detail

/// Mixes a 64-bit value (splitmix64 finalizer); good avalanche for ids.
uint64_t mix64(uint64_t x);

/// Routing-key hash onto the unit interval [0, 1).
double keyHash01(std::string_view routingKey);

/// Stateless segment-id → container assignment over `containerCount`
/// containers (uniform hash known by the control plane, §2.2).
uint32_t containerFor(uint64_t segmentId, uint32_t containerCount);

}  // namespace pravega
