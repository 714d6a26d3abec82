// Per-tenant ingest quotas (the noisy-neighbor guard of §3.1's
// multi-tenant fleets). A tenant is a scope; the manager windows the data
// plane's monotonic per-segment ingest counters, folds them to per-tenant
// rates via the controller's segment → stream map, and maintains a
// multiplicative-decrease / gradual-recovery throttle allowance per tenant:
// the fraction of its offered load a tenant may currently send. Enforcement
// is cooperative, as in real Pravega deployments where the control plane
// feeds backpressure hints to clients — the workload driver (or a client)
// consults `allowance()` before sending. Tenants without a quota are never
// throttled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "segmentstore/segment_store.h"
#include "sim/machine.h"
#include "sim/timer.h"

namespace pravega::obs {
class Counter;
}

namespace pravega::controller {

class TenantQuotaManager {
public:
    struct Config {
        sim::Duration pollInterval = sim::msec(500);
        /// Allowance regrowth per poll while under quota (multiplicative,
        /// clamped at 1.0) — fast enough to reclaim headroom, slow enough
        /// not to oscillate against the decrease path.
        double recoverFactor = 1.25;
        /// Throttle floor: a tenant is never squeezed below this fraction
        /// (quotas bound, they don't starve).
        double minAllowance = 0.05;
    };

    TenantQuotaManager(sim::Core& exec, Controller& controller,
                       std::vector<segmentstore::SegmentStore*> stores)
        : TenantQuotaManager(exec, controller, std::move(stores), Config{}) {}
    TenantQuotaManager(sim::Core& exec, Controller& controller,
                       std::vector<segmentstore::SegmentStore*> stores, Config cfg);

    /// Sets (or replaces) a tenant's ingest quota in bytes/sec.
    void setQuota(const std::string& tenant, double bytesPerSec);

    void start();

    /// Runs one evaluation immediately (test hook).
    void tickNow() { tick(); }

    /// Fraction of offered load `tenant` may send right now, in
    /// (minAllowance, 1]. 1.0 for unknown or unlimited tenants.
    double allowance(const std::string& tenant) const;

    /// Ingest rate (B/s) measured for `tenant` over the last poll window.
    double measuredRate(const std::string& tenant) const;

    /// Polls in which at least one tenant was over quota.
    uint64_t throttleTicks() const { return throttleTicks_; }

private:
    struct TenantState {
        double quotaBytesPerSec = 0.0;  // 0 = unlimited
        double allowance = 1.0;
        double rate = 0.0;
    };

    void tick();
    /// Tenant (scope) owning `segment`, cached; empty for internal segments.
    const std::string& tenantOf(SegmentId segment);

    sim::Core& exec_;
    Controller& controller_;
    std::vector<segmentstore::SegmentStore*> stores_;
    Config cfg_;

    std::map<std::string, TenantState> tenants_;
    std::map<SegmentId, std::string> segmentTenant_;
    std::map<SegmentId, uint64_t> prevBytes_;
    sim::TimePoint lastTick_ = 0;
    uint64_t throttleTicks_ = 0;

    obs::Counter& throttleCounter_;
    sim::Timer timer_;  // poll; cancelled by stop()
};

}  // namespace pravega::controller
