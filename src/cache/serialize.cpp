#include "cache/serialize.hpp"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <utility>

#include "support/log.hpp"

namespace autocomm::cache {

namespace {

using ull = unsigned long long;
using LinkMap = std::map<std::pair<NodeId, NodeId>, std::size_t>;

Json
size_array(const std::vector<std::size_t>& v)
{
    Json arr = Json::array();
    for (const std::size_t x : v)
        arr.push_back(Json::number(static_cast<ull>(x)));
    return arr;
}

Json
double_array(const std::vector<double>& v)
{
    Json arr = Json::array();
    for (const double x : v)
        arr.push_back(Json::number(x));
    return arr;
}

/** [[a, b, count], ...] for a per-link ledger map. */
Json
link_map(const LinkMap& m)
{
    Json arr = Json::array();
    for (const auto& [link, n] : m) {
        Json entry = Json::array();
        entry.push_back(Json::number(static_cast<long long>(link.first)));
        entry.push_back(Json::number(static_cast<long long>(link.second)));
        entry.push_back(Json::number(static_cast<ull>(n)));
        arr.push_back(std::move(entry));
    }
    return arr;
}

Json
factors_to_json(const std::optional<baseline::RelativeFactors>& f)
{
    if (!f)
        return Json::null();
    Json obj = Json::object();
    obj.set("improv", Json::number(f->improv_factor));
    obj.set("lat_dec", Json::number(f->lat_dec_factor));
    return obj;
}

} // namespace

Json
row_to_json(const driver::SweepRow& row)
{
    Json doc = Json::object();
    doc.set("ok", Json::boolean(row.ok));
    doc.set("error", Json::string(row.error));

    Json stats = Json::object();
    stats.set("total_gates", Json::number(static_cast<ull>(
                                 row.stats.total_gates)));
    stats.set("single_qubit_gates",
              Json::number(static_cast<ull>(row.stats.single_qubit_gates)));
    stats.set("two_qubit_gates",
              Json::number(static_cast<ull>(row.stats.two_qubit_gates)));
    stats.set("cx_gates",
              Json::number(static_cast<ull>(row.stats.cx_gates)));
    stats.set("three_qubit_gates",
              Json::number(static_cast<ull>(row.stats.three_qubit_gates)));
    stats.set("measurements",
              Json::number(static_cast<ull>(row.stats.measurements)));
    stats.set("depth", Json::number(static_cast<ull>(row.stats.depth)));
    doc.set("stats", std::move(stats));

    doc.set("remote_cx", Json::number(static_cast<ull>(row.remote_cx)));

    Json metrics = Json::object();
    metrics.set("remote_gates",
                Json::number(static_cast<ull>(row.metrics.remote_gates)));
    metrics.set("num_blocks",
                Json::number(static_cast<ull>(row.metrics.num_blocks)));
    metrics.set("total_comms",
                Json::number(static_cast<ull>(row.metrics.total_comms)));
    metrics.set("tp_comms",
                Json::number(static_cast<ull>(row.metrics.tp_comms)));
    metrics.set("cat_comms",
                Json::number(static_cast<ull>(row.metrics.cat_comms)));
    metrics.set("peak_rem_cx", Json::number(row.metrics.peak_rem_cx));
    metrics.set("per_comm_cx", double_array(row.metrics.per_comm_cx));
    metrics.set("block_sizes", size_array(row.metrics.block_sizes));
    doc.set("metrics", std::move(metrics));

    Json sched = Json::object();
    sched.set("makespan", Json::number(row.schedule.makespan));
    sched.set("epr_pairs",
              Json::number(static_cast<ull>(row.schedule.epr_pairs)));
    sched.set("teleports",
              Json::number(static_cast<ull>(row.schedule.teleports)));
    sched.set("fused_links",
              Json::number(static_cast<ull>(row.schedule.fused_links)));
    sched.set("hops_total",
              Json::number(static_cast<ull>(row.schedule.hops_total)));
    sched.set("epr_raw_pairs",
              Json::number(static_cast<ull>(row.schedule.epr_raw_pairs)));
    sched.set("purify_rounds",
              Json::number(static_cast<ull>(row.schedule.purify_rounds)));
    sched.set("detours",
              Json::number(static_cast<ull>(row.schedule.detours)));

    Json ledger = Json::object();
    ledger.set("per_link", link_map(row.schedule.ledger.per_link()));
    ledger.set("raw_per_link",
               link_map(row.schedule.ledger.raw_per_link()));
    ledger.set("total",
               Json::number(static_cast<ull>(row.schedule.ledger.total())));
    ledger.set("raw_total", Json::number(static_cast<ull>(
                                row.schedule.ledger.raw_total())));
    ledger.set("log_fidelity",
               Json::number(row.schedule.ledger.log_fidelity()));
    sched.set("ledger", std::move(ledger));
    doc.set("schedule", std::move(sched));

    doc.set("factors", factors_to_json(row.factors));
    doc.set("gptp_factors", factors_to_json(row.gptp_factors));
    return doc;
}

namespace {

/** One member an object must carry, and how to read its value. */
struct Field
{
    std::string_view name;
    std::function<void()> read;
};

/**
 * Read the object under @p r's cursor: a member named in @p fields goes
 * to its reader (the first occurrence wins), any other member is
 * skipped, and a field that never appears throws — the row is
 * incomplete, so the store treats it as corrupt. @p path prefixes the
 * field names in that error.
 */
void
read_fields(JsonReader& r, const char* path,
            std::initializer_list<Field> fields)
{
    std::uint64_t seen = 0;
    r.read_object([&](std::string_view key) {
        std::uint64_t bit = 1;
        for (const Field& f : fields) {
            if (f.name == key && !(seen & bit)) {
                seen |= bit;
                f.read();
                return;
            }
            bit <<= 1;
        }
        r.skip();
    });
    std::uint64_t bit = 1;
    for (const Field& f : fields) {
        if (!(seen & bit))
            support::fatal("cache: row member \"%s%.*s\" is missing", path,
                           static_cast<int>(f.name.size()), f.name.data());
        bit <<= 1;
    }
}

/** [[a, b, count], ...] back into a per-link ledger map. */
LinkMap
read_link_map(JsonReader& r)
{
    LinkMap out;
    r.read_array([&] {
        long long a = 0;
        long long b = 0;
        unsigned long long n = 0;
        int i = 0;
        r.read_array([&] {
            switch (i++) {
            case 0: a = r.read_int(); break;
            case 1: b = r.read_int(); break;
            case 2: n = r.read_uint(); break;
            default: support::fatal("cache: malformed ledger link entry");
            }
        });
        if (i != 3)
            support::fatal("cache: malformed ledger link entry");
        out[{static_cast<NodeId>(a), static_cast<NodeId>(b)}] =
            static_cast<std::size_t>(n);
    });
    return out;
}

std::optional<baseline::RelativeFactors>
read_factors(JsonReader& r, const char* path)
{
    if (r.peek() == Json::Type::Null) {
        r.read_null();
        return std::nullopt;
    }
    baseline::RelativeFactors f;
    read_fields(r, path,
                {{"improv", [&] { f.improv_factor = r.read_double(); }},
                 {"lat_dec", [&] { f.lat_dec_factor = r.read_double(); }}});
    return f;
}

} // namespace

driver::SweepRow
row_from_text(std::string_view text, const driver::SweepCell& cell)
{
    driver::SweepRow row;
    row.cell = cell;
    JsonReader r(text);
    const auto count = [&r](std::size_t& out) {
        return [&r, &out] { out = static_cast<std::size_t>(r.read_uint()); };
    };
    const auto real = [&r](double& out) {
        return [&r, &out] { out = r.read_double(); };
    };

    auto& st = row.stats;
    const auto stats = [&] {
        read_fields(r, "stats.",
                    {{"total_gates", count(st.total_gates)},
                     {"single_qubit_gates", count(st.single_qubit_gates)},
                     {"two_qubit_gates", count(st.two_qubit_gates)},
                     {"cx_gates", count(st.cx_gates)},
                     {"three_qubit_gates", count(st.three_qubit_gates)},
                     {"measurements", count(st.measurements)},
                     {"depth", count(st.depth)}});
    };

    auto& m = row.metrics;
    const auto metrics = [&] {
        read_fields(
            r, "metrics.",
            {{"remote_gates", count(m.remote_gates)},
             {"num_blocks", count(m.num_blocks)},
             {"total_comms", count(m.total_comms)},
             {"tp_comms", count(m.tp_comms)},
             {"cat_comms", count(m.cat_comms)},
             {"peak_rem_cx", real(m.peak_rem_cx)},
             {"per_comm_cx",
              [&] {
                  r.read_array(
                      [&] { m.per_comm_cx.push_back(r.read_double()); });
              }},
             {"block_sizes", [&] {
                  r.read_array([&] {
                      m.block_sizes.push_back(
                          static_cast<std::size_t>(r.read_uint()));
                  });
              }}});
    };

    auto& sc = row.schedule;
    const auto ledger = [&] {
        LinkMap per_link;
        LinkMap raw_per_link;
        std::size_t total = 0;
        std::size_t raw_total = 0;
        double log_fidelity = 0.0;
        read_fields(r, "schedule.ledger.",
                    {{"per_link", [&] { per_link = read_link_map(r); }},
                     {"raw_per_link",
                      [&] { raw_per_link = read_link_map(r); }},
                     {"total", count(total)},
                     {"raw_total", count(raw_total)},
                     {"log_fidelity", real(log_fidelity)}});
        sc.ledger = comm::EprLedger::restore(std::move(per_link),
                                             std::move(raw_per_link), total,
                                             raw_total, log_fidelity);
    };
    const auto schedule = [&] {
        read_fields(r, "schedule.",
                    {{"makespan", real(sc.makespan)},
                     {"epr_pairs", count(sc.epr_pairs)},
                     {"teleports", count(sc.teleports)},
                     {"fused_links", count(sc.fused_links)},
                     {"hops_total", count(sc.hops_total)},
                     {"epr_raw_pairs", count(sc.epr_raw_pairs)},
                     {"purify_rounds", count(sc.purify_rounds)},
                     {"detours", count(sc.detours)},
                     {"ledger", ledger}});
    };

    read_fields(
        r, "",
        {{"ok", [&] { row.ok = r.read_bool(); }},
         {"error", [&] { row.error = r.read_string(); }},
         {"stats", stats},
         {"remote_cx", count(row.remote_cx)},
         {"metrics", metrics},
         {"schedule", schedule},
         {"factors", [&] { row.factors = read_factors(r, "factors."); }},
         {"gptp_factors",
          [&] { row.gptp_factors = read_factors(r, "gptp_factors."); }}});
    r.finish();

    // compile_seconds is wall-clock and deliberately not cached.
    row.compile_seconds = 0.0;
    return row;
}

} // namespace autocomm::cache
