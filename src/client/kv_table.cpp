#include "client/kv_table.h"

namespace pravega::client {

using segmentstore::SegmentContainer;
using segmentstore::SegmentStore;

Result<std::unique_ptr<KeyValueTable>> KeyValueTable::create(sim::Core& /*exec*/,
                                                             sim::Network& net,
                                                             sim::HostId clientHost,
                                                             controller::Controller& controller,
                                                             const std::string& scopedName) {
    auto uri = controller.createInternalSegment("_kvtables/" + scopedName, /*isTable=*/true);
    if (!uri) return uri.status();
    return std::unique_ptr<KeyValueTable>(new KeyValueTable(net, clientHost, uri.value()));
}

sim::Future<int64_t> KeyValueTable::put(const std::string& key, Bytes value,
                                        int64_t expectedVersion) {
    std::vector<segmentstore::TableUpdate> batch(1);
    batch[0].key = key;
    batch[0].value = std::move(value);
    batch[0].expectedVersion = expectedVersion;
    uint64_t bytes = key.size() + batch[0].value->size();
    return request<int64_t>(
        bytes,
        [table = table_, batch = std::move(batch)](SegmentStore&, SegmentContainer& c) mutable {
            return c.tableUpdate(table, std::move(batch))
                .then([](const std::vector<int64_t>& versions) { return versions.at(0); });
        });
}

sim::Future<std::optional<segmentstore::TableValue>> KeyValueTable::get(const std::string& key) {
    using Out = std::optional<segmentstore::TableValue>;
    return request<Out>(
        key.size(), [table = table_, key](SegmentStore&, SegmentContainer& c) {
            auto r = c.tableGet(table, key);
            if (r.isOk()) return sim::Future<Out>::ready(Out(r.value()));
            if (r.code() == Err::NotFound && c.getInfo(table).isOk()) {
                return sim::Future<Out>::ready(Out(std::nullopt));
            }
            return sim::Future<Out>::failed(r.status());
        });
}

sim::Future<std::vector<int64_t>> KeyValueTable::updateAll(
    std::vector<segmentstore::TableUpdate> batch) {
    uint64_t bytes = 0;
    for (const auto& u : batch) bytes += u.key.size() + (u.value ? u.value->size() : 0);
    return request<std::vector<int64_t>>(
        bytes,
        [table = table_, batch = std::move(batch)](SegmentStore&, SegmentContainer& c) mutable {
            return c.tableUpdate(table, std::move(batch));
        });
}

}  // namespace pravega::client
