#include "autocomm/pipeline.hpp"

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace autocomm::pass {

void
validate_compile_inputs(const qir::Circuit& c, const hw::QubitMapping& map,
                        const hw::Machine& m)
{
    if (c.num_qubits() != map.num_qubits())
        support::fatal("compile: circuit has %d qubits, mapping %d",
                       c.num_qubits(), map.num_qubits());
    m.validate_shape();
    m.validate_routing();
    m.validate_noise();
    map.validate(m);
}

CompileResult
compile(const qir::Circuit& c, const hw::QubitMapping& map,
        const hw::Machine& m, const CompileOptions& opts)
{
    validate_compile_inputs(c, map, m);
    std::vector<CommBlock> blocks;
    {
        obs::Span span("aggregate");
        blocks = aggregate(c, map, opts.aggregate);
    }
    return compile_aggregated(c, map, m, std::move(blocks), opts);
}

CompileResult
compile_aggregated(const qir::Circuit& c, const hw::QubitMapping& map,
                   const hw::Machine& m, std::vector<CommBlock> blocks,
                   const CompileOptions& opts)
{
    validate_compile_inputs(c, map, m);

    CompileResult r;
    r.blocks = std::move(blocks);
    {
        obs::Span span("assign");
        assign_schemes(c, r.blocks, opts.assign);
    }
    {
        obs::Span span("reorder");
        r.metrics = compute_metrics(c, r.blocks);
        r.reordered = reorder_with_blocks(c, r.blocks, &r.block_start);
    }
    {
        obs::Span span("schedule");
        r.schedule = schedule_program(r.reordered, r.blocks, r.block_start,
                                      map, m, opts.schedule);
    }
    obs::count("schedule.epr_pairs",
               static_cast<std::uint64_t>(r.schedule.epr_pairs));
    obs::count("schedule.detours",
               static_cast<std::uint64_t>(r.schedule.detours));
    return r;
}

} // namespace autocomm::pass
