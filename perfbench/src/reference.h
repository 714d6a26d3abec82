// A fixed computation that does not touch the library, timed between the
// rounds of a run. On a container with a few cores of a shared host, the
// speed of the benchmark's core drifts by up to 30% for minutes at a time,
// which moves every wall time of a round by about the same share. The workloads divide their wall
// times by the reference time measured around the round and multiply by
// `kNominalS`, so `run_s` and `setup_s` read as seconds on a host where the
// reference takes `kNominalS`, and host drift cancels.
//
// The job is hash-table probes over 8 MB and binary-heap pushes and pops,
// the accesses the simulation's maps and event queues make. Sampled next to
// the simulation, jobs like this slowed as much as it did when the host
// slowed; pointer chasing beyond the last-level cache, memcpy and plain
// arithmetic slowed half as much, and a pointer chase within the last-level
// cache swung threefold. The memory is allocated in the constructor and an
// untimed pass refills the caches first, so the timed part does not depend
// on the heap or cache state the library leaves behind.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class ReferenceJob {
public:
    /// Seconds `run()` returns on the 4-core x86 container the benchmark
    /// was tuned on.
    static constexpr double kNominalS = 0.04;

    ReferenceJob();

    /// Runs the job untimed once, then timed a few times; returns the mean
    /// seconds of a timed pass. Every pass computes the same checksum;
    /// false from `consistent()` means one did not.
    double run();
    bool consistent() const { return consistent_; }

private:
    uint64_t once();

    std::vector<uint64_t> table_;  // open-addressing hash set
    std::vector<uint64_t> heap_;
    uint64_t checksum_ = 0;
    bool consistent_ = true;
};

}  // namespace perfbench
