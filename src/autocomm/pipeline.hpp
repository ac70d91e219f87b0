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

/**
 * What the machine-independent stages produce: aggregation's blocks with
 * their schemes assigned, the communication counts, and the circuit
 * reordered around the blocks. Assignment and reordering read only the
 * circuit and the blocks, so one layout serves every machine and every
 * ScheduleOptions.
 */
struct Layout
{
    /** Burst blocks with assigned schemes. */
    std::vector<CommBlock> blocks;
    /** Circuit reordered so each block is contiguous. */
    qir::Circuit reordered;
    /** Index in `reordered` of each block's first gate. */
    std::vector<std::size_t> block_start;
    /** Communication metrics (Table 3 columns). */
    Metrics metrics;
};

/** Everything the pipeline produces: a layout and its schedule. */
struct CompileResult : Layout
{
    /** Latency simulation outcome. */
    ScheduleResult schedule;
};

/**
 * Run the full AutoComm pipeline. @p c must be decomposed to 1q/2q gates.
 * @p map must be valid for @p m (see QubitMapping::validate). This is
 * validate_compile_inputs(), aggregate(), lay_out() and schedule_layout().
 */
CompileResult compile(const qir::Circuit& c, const hw::QubitMapping& map,
                      const hw::Machine& m, const CompileOptions& opts = {});

/**
 * Assign schemes to @p blocks, count the communication metrics, and
 * reorder @p c around the blocks. @p blocks must be what aggregate()
 * returned for @p c. No machine or schedule option is read, so a caller
 * compiling one aggregation under several machines or ScheduleOptions
 * lays it out once per AssignOptions and schedules that one layout on
 * each machine.
 */
Layout lay_out(const qir::Circuit& c, std::vector<CommBlock> blocks,
               const AssignOptions& opts = {});

/**
 * Schedule @p layout on machine @p m under mapping @p map, the mapping
 * aggregation ran with. The caller checks the inputs first (see
 * validate_compile_inputs).
 */
ScheduleResult schedule_layout(const Layout& layout,
                               const hw::QubitMapping& map,
                               const hw::Machine& m,
                               const ScheduleOptions& opts = {});

/**
 * The input checks compile() runs before any pass: @p c and @p map agree
 * on the qubit count, and @p m is well formed with @p map valid for it.
 * Throws support::UserError otherwise.
 */
void validate_compile_inputs(const qir::Circuit& c,
                             const hw::QubitMapping& map,
                             const hw::Machine& m);

} // namespace autocomm::pass
