#include "controller/quota.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pravega::controller {

namespace {
constexpr const char* kLog = "quota";
const std::string kNoTenant;
}  // namespace

TenantQuotaManager::TenantQuotaManager(sim::Core& exec, Controller& controller,
                                       std::vector<segmentstore::SegmentStore*> stores,
                                       Config cfg)
    : exec_(exec),
      controller_(controller),
      stores_(std::move(stores)),
      cfg_(cfg),
      throttleCounter_(exec.metrics().counter("ctrl.quota.throttles")),
      timer_(exec, [this]() { tick(); }) {}

void TenantQuotaManager::setQuota(const std::string& tenant, double bytesPerSec) {
    tenants_[tenant].quotaBytesPerSec = bytesPerSec;
}

void TenantQuotaManager::start() {
    if (timer_.armed()) return;
    lastTick_ = exec_.now();
    timer_.every(cfg_.pollInterval);
}

double TenantQuotaManager::allowance(const std::string& tenant) const {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end() || it->second.quotaBytesPerSec <= 0) return 1.0;
    return it->second.allowance;
}

double TenantQuotaManager::measuredRate(const std::string& tenant) const {
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0.0 : it->second.rate;
}

const std::string& TenantQuotaManager::tenantOf(SegmentId segment) {
    auto it = segmentTenant_.find(segment);
    if (it != segmentTenant_.end()) return it->second;
    std::string tenant;
    auto name = controller_.streamOf(segment);
    if (name) {
        const std::string& scoped = name.value();
        tenant = scoped.substr(0, scoped.find('/'));
    }
    // Internal segments (tables, coordination) cache as "" → unattributed.
    return segmentTenant_.emplace(segment, std::move(tenant)).first->second;
}

void TenantQuotaManager::tick() {
    double windowSec = sim::toSeconds(exec_.now() - lastTick_);
    lastTick_ = exec_.now();
    if (windowSec <= 0) return;

    // Fold the window's per-segment ingest into per-tenant byte counts.
    std::map<std::string, uint64_t> tenantBytes;
    for (auto* store : stores_) {
        for (uint32_t cid : store->containerIds()) {
            auto* container = store->container(cid);
            if (container == nullptr) continue;
            container->forEachCumulativeRate([&](SegmentId seg, const auto& cum) {
                uint64_t prev = prevBytes_[seg];
                uint64_t d = cum.bytes >= prev ? cum.bytes - prev : cum.bytes;
                prevBytes_[seg] = cum.bytes;
                if (d == 0) return;
                const std::string& tenant = tenantOf(seg);
                if (!tenant.empty()) tenantBytes[tenant] += d;
            });
        }
    }

    bool throttledAny = false;
    for (auto& [tenant, state] : tenants_) {
        auto bit = tenantBytes.find(tenant);
        state.rate = bit == tenantBytes.end()
                         ? 0.0
                         : static_cast<double>(bit->second) / windowSec;
        exec_.metrics().gauge("ctrl.quota." + tenant + ".rate_bps").set(state.rate);
        if (state.quotaBytesPerSec <= 0) continue;
        if (state.rate > state.quotaBytesPerSec) {
            // Multiplicative decrease toward the quota: measured rate is
            // offered × allowance, so scaling by quota/rate converges.
            state.allowance = std::max(
                cfg_.minAllowance,
                state.allowance * state.quotaBytesPerSec / state.rate);
            throttledAny = true;
            throttleCounter_.inc();
            PLOG_INFO(kLog, "tenant %s over quota (%.0f > %.0f B/s), allowance -> %.3f",
                      tenant.c_str(), state.rate, state.quotaBytesPerSec,
                      state.allowance);
        } else if (state.allowance < 1.0) {
            state.allowance = std::min(1.0, state.allowance * cfg_.recoverFactor);
        }
        exec_.metrics().gauge("ctrl.quota." + tenant + ".allowance").set(state.allowance);
    }
    if (throttledAny) ++throttleTicks_;
}

}  // namespace pravega::controller
