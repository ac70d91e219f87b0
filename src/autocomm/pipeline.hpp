/**
 * @file
 * The end-to-end AutoComm compiler pipeline (paper Fig. 1): aggregation ->
 * assignment -> scheduling, over a decomposed circuit and a qubit mapping
 * produced by the front-end (e.g., OEE).
 *
 * This is the primary public entry point of the library:
 *
 * @code
 *   using namespace autocomm;
 *   qir::Circuit logical = circuits::make_qft(100);
 *   qir::Circuit program = qir::decompose(logical);
 *   hw::Machine machine{.num_nodes = 10, .qubits_per_node = 10};
 *   hw::QubitMapping map = partition::oee_map(program, 10);
 *   pass::CompileResult r = pass::compile(program, map, machine);
 *   // r.metrics.total_comms, r.schedule.makespan, ...
 * @endcode
 */
#pragma once

#include <vector>

#include "autocomm/aggregate.hpp"
#include "autocomm/assign.hpp"
#include "autocomm/burst.hpp"
#include "autocomm/metrics.hpp"
#include "autocomm/schedule.hpp"
#include "hw/machine.hpp"
#include "qir/circuit.hpp"

namespace autocomm::pass {

/** All pipeline knobs (each stage's ablation switches included). */
struct CompileOptions
{
    AggregateOptions aggregate{};
    AssignOptions assign{};
    ScheduleOptions schedule{};
};

/** Everything the pipeline produces. */
struct CompileResult
{
    /** Burst blocks with assigned schemes. */
    std::vector<CommBlock> blocks;
    /** Circuit reordered so each block is contiguous. */
    qir::Circuit reordered;
    /** Index in `reordered` of each block's first gate. */
    std::vector<std::size_t> block_start;
    /** Communication metrics (Table 3 columns). */
    Metrics metrics;
    /** Latency simulation outcome. */
    ScheduleResult schedule;
};

/**
 * Run the full AutoComm pipeline. @p c must be decomposed to 1q/2q gates.
 * @p map must be valid for @p m (see QubitMapping::validate).
 */
CompileResult compile(const qir::Circuit& c, const hw::QubitMapping& map,
                      const hw::Machine& m, const CompileOptions& opts = {});

/**
 * The stages of compile() after aggregation: assign schemes to @p blocks,
 * reorder, and schedule. @p blocks must be what aggregate() returned for
 * @p c under @p map; opts.aggregate is not read. compile() is aggregate()
 * followed by this call, so a caller compiling one (circuit, mapping)
 * under several machines or assign/schedule options can aggregate once
 * and pass each call its own copy of the blocks (assignment mutates
 * them). Inputs are validated as in compile().
 */
CompileResult compile_aggregated(const qir::Circuit& c,
                                 const hw::QubitMapping& map,
                                 const hw::Machine& m,
                                 std::vector<CommBlock> blocks,
                                 const CompileOptions& opts = {});

/**
 * The input checks compile() runs before any pass: @p c and @p map agree
 * on the qubit count, and @p m is well formed with @p map valid for it.
 * Throws support::UserError otherwise.
 */
void validate_compile_inputs(const qir::Circuit& c,
                             const hw::QubitMapping& map,
                             const hw::Machine& m);

} // namespace autocomm::pass
