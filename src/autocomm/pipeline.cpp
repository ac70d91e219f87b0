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
    CompileResult r{lay_out(c, std::move(blocks), opts.assign), {}};
    r.schedule = schedule_layout(r, map, m, opts.schedule);
    return r;
}

Layout
lay_out(const qir::Circuit& c, std::vector<CommBlock> blocks,
        const AssignOptions& opts)
{
    Layout l;
    l.blocks = std::move(blocks);
    {
        obs::Span span("assign");
        assign_schemes(c, l.blocks, opts);
    }
    obs::Span span("reorder");
    l.metrics = compute_metrics(c, l.blocks);
    l.reordered = reorder_with_blocks(c, l.blocks, &l.block_start);
    return l;
}

ScheduleResult
schedule_layout(const Layout& layout, const hw::QubitMapping& map,
                const hw::Machine& m, const ScheduleOptions& opts)
{
    ScheduleResult s;
    {
        obs::Span span("schedule");
        s = schedule_program(layout.reordered, layout.blocks,
                             layout.block_start, map, m, opts);
    }
    obs::count("schedule.epr_pairs", static_cast<std::uint64_t>(s.epr_pairs));
    obs::count("schedule.detours", static_cast<std::uint64_t>(s.detours));
    return s;
}

} // namespace autocomm::pass
