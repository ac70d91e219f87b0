#include "cache/key.hpp"

#include "circuits/qasm_source.hpp"
#include "support/log.hpp"

namespace autocomm::cache {

namespace {

/**
 * Serialize every CompileOptions field. The option-set *name* is keyed
 * separately (it appears in the CSV); keying the contents too means a
 * renamed-but-identical set misses once, while an option added to the
 * struct must be added here — the static_assert pins the struct sizes so
 * forgetting fails the build, not the cache's correctness.
 */
std::string
option_fields(const pass::CompileOptions& o)
{
    // Best-effort layout pins: if one fires, a pass gained or lost an
    // option — serialize the new field below (order: aggregate, assign,
    // schedule) and update the mirror. Do not bump the salt for this;
    // new fields change the canonical string by themselves. (A field
    // that hides in padding slips past the pin — reviewers beware.)
    struct AggregateMirror { bool a; bool b; int c; };
    struct AssignMirror { bool a; };
    struct ScheduleMirror { bool a; bool b; };
    struct CompileMirror
    {
        AggregateMirror a;
        AssignMirror b;
        ScheduleMirror c;
    };
    static_assert(sizeof(pass::AggregateOptions) == sizeof(AggregateMirror),
                  "AggregateOptions changed: update cache::option_fields");
    static_assert(sizeof(pass::AssignOptions) == sizeof(AssignMirror),
                  "AssignOptions changed: update cache::option_fields");
    static_assert(sizeof(pass::ScheduleOptions) == sizeof(ScheduleMirror),
                  "ScheduleOptions changed: update cache::option_fields");
    static_assert(sizeof(pass::CompileOptions) == sizeof(CompileMirror),
                  "CompileOptions gained a member: update "
                  "cache::option_fields");
    return support::strprintf(
        "use_commutation=%d,absorb_local_gates=%d,comm_capacity=%d,"
        "allow_tp=%d,epr_prefetch=%d,tp_fusion=%d",
        o.aggregate.use_commutation ? 1 : 0,
        o.aggregate.absorb_local_gates ? 1 : 0, o.aggregate.comm_capacity,
        o.assign.allow_tp ? 1 : 0, o.schedule.epr_prefetch ? 1 : 0,
        o.schedule.tp_fusion ? 1 : 0);
}

} // namespace

CellKey
cell_key(const driver::SweepCell& cell, const std::string& salt)
{
    // Best-effort pin on SweepCell itself (same caveats as the option
    // mirrors above): a new sweep axis that is not serialized below
    // would let cells differing only in that axis share a key — warm
    // runs would then serve wrong rows. Grow this mirror together with
    // the canonical string. BenchmarkSpec gets its own pin because the
    // CellMirror embeds the real type and would absorb its growth
    // silently.
    struct SpecMirror
    {
        circuits::Family family;
        int num_qubits, num_nodes;
        std::string qasm_path;
    };
    static_assert(sizeof(circuits::BenchmarkSpec) == sizeof(SpecMirror),
                  "BenchmarkSpec gained a field: serialize it in "
                  "cell_key");
    struct CellMirror
    {
        circuits::BenchmarkSpec spec;
        driver::OptionSet options;
        std::uint64_t seed;
        std::string shape;
        hw::Topology topology;
        double link_fidelity, target_fidelity;
        int link_bandwidth;
        std::vector<driver::LinkValue> fo, bo;
        partition::Mapper partitioner;
        bool with_baseline, with_gptp, stats_only;
    };
    static_assert(sizeof(driver::SweepCell) == sizeof(CellMirror),
                  "SweepCell gained a field: serialize it in cell_key");

    CellKey key;
    key.canonical = support::strprintf(
        "autocomm-cell-v2;salt=%s;family=%s;qubits=%d;nodes=%d;"
        "seed=%llu;%s;partitioner=%s;options=%s{%s};"
        "baseline=%d;gptp=%d;stats_only=%d",
        salt.c_str(), circuits::family_name(cell.spec.family),
        cell.spec.num_qubits, cell.spec.num_nodes,
        static_cast<unsigned long long>(cell.seed),
        driver::machine_key(cell).c_str(),
        partition::mapper_name(cell.partitioner),
        cell.options.name.c_str(), option_fields(cell.options.opts).c_str(),
        cell.with_baseline ? 1 : 0, cell.with_gptp ? 1 : 0,
        cell.stats_only ? 1 : 0);
    if (cell.spec.family == circuits::Family::QASM) {
        // File-backed cells key on the file's *content* (not its path):
        // editing the file invalidates its cached rows, while the same
        // circuit at two paths — or a renamed file — still hits.
        // Non-QASM canonical strings are unchanged, so this needs no
        // salt bump. I/O errors propagate as UserError: a missing file
        // must not silently key as "empty".
        key.canonical += support::strprintf(
            ";qasm=%s",
            hash128(circuits::read_text_file(cell.spec.qasm_path)).hex()
                .c_str());
    }
    key.hash = hash128(key.canonical);
    return key;
}

bool
in_shard(const CellKey& key, const driver::ShardSpec& shard)
{
    if (shard.count < 1 || shard.index < 0 || shard.index >= shard.count)
        support::fatal("in_shard: bad shard %d/%d", shard.index,
                       shard.count);
    return key.hash.lo % static_cast<std::uint64_t>(shard.count) ==
           static_cast<std::uint64_t>(shard.index);
}

std::vector<driver::SweepCell>
shard_filter(const std::vector<driver::SweepCell>& cells,
             const driver::ShardSpec& shard, const std::string& salt)
{
    std::vector<driver::SweepCell> out;
    for (const driver::SweepCell& cell : cells)
        if (in_shard(cell_key(cell, salt), shard))
            out.push_back(cell);
    return out;
}

} // namespace autocomm::cache
