/**
 * @file
 * The paper's main baseline (Ferrari et al. [15]): every remote CX is
 * implemented independently with Cat-Comm (one EPR pair each, "sparse
 * communication"), scheduled as-soon-as-possible. This is a thin
 * configuration of the AutoComm pipeline with aggregation and fusion
 * disabled, so baseline and AutoComm run on an identical substrate.
 */
#pragma once

#include "autocomm/pipeline.hpp"
#include "hw/machine.hpp"
#include "qir/circuit.hpp"

namespace autocomm::baseline {

/** The Ferrari pipeline configuration: one block per remote gate. */
pass::CompileOptions ferrari_options();

/** pass::compile(c, map, m, ferrari_options()). */
pass::CompileResult compile_ferrari(const qir::Circuit& c,
                                    const hw::QubitMapping& map,
                                    const hw::Machine& m);

/** Relative metrics of AutoComm vs a baseline (Table 3 right columns). */
struct RelativeFactors
{
    double improv_factor = 0.0;  ///< baseline comms / autocomm comms.
    double lat_dec_factor = 0.0; ///< baseline latency / autocomm latency.
};

/** Compute relative factors between two compile results. */
RelativeFactors relative_factors(const pass::CompileResult& baseline,
                                 const pass::CompileResult& autocomm);

/** Same, from a baseline's raw comm count and makespan (e.g. GP-TP). */
RelativeFactors relative_factors(std::size_t baseline_comms,
                                 double baseline_makespan,
                                 const pass::CompileResult& autocomm);

/** Same, from both sides' raw comm counts and makespans. */
RelativeFactors relative_factors(std::size_t baseline_comms,
                                 double baseline_makespan,
                                 std::size_t autocomm_comms,
                                 double autocomm_makespan);

} // namespace autocomm::baseline
