/**
 * @file
 * Static "Overall Extreme Exchange" (OEE) qubit partitioner.
 *
 * The paper maps qubits to nodes with the Static Overall Extreme Exchange
 * strategy of Baker et al. [11]: a Kernighan–Lin-style multi-way exchange
 * heuristic. Starting from a balanced assignment, each pass greedily
 * applies the *extreme* (maximum-gain) pairwise exchange of two qubits in
 * different partitions — even when the immediate gain is negative, KL
 * hill-climbing style — locks the pair, and at pass end rolls back to the
 * best prefix of the exchange sequence. Passes repeat until no pass
 * improves the cut.
 */
#pragma once

#include <vector>

#include "hw/machine.hpp"
#include "partition/interaction_graph.hpp"

namespace autocomm::partition {

/** Configuration for the OEE partitioner. */
struct OeeOptions
{
    /** Upper bound on improvement passes (safety valve). Each pass
     * considers at most min(n/2, 64) exchanges for n qubits. */
    int max_passes = 16;
};

/**
 * Partition the qubits of @p g into @p num_nodes balanced parts minimizing
 * the interaction cut. The initial assignment is contiguous (qubit q ->
 * node q/t), matching a static program layout.
 *
 * @return the qubit -> node assignment.
 */
std::vector<NodeId> oee_partition(const InteractionGraph& g, int num_nodes,
                                  const OeeOptions& opts = {});

/**
 * Capacity-aware OEE: partition into parts sized by the per-node
 * capacities. The initial assignment is the capacity-contiguous fill and
 * the pairwise exchanges preserve every node's load, so no node ever
 * exceeds its declared capacity. Throws support::UserError when
 * sum(capacities) < |qubits|. With equal capacities ceil(n/k) this is
 * exactly the homogeneous oee_partition above.
 */
std::vector<NodeId> oee_partition(const InteractionGraph& g,
                                  const std::vector<int>& capacities,
                                  const OeeOptions& opts = {});

/**
 * Run OEE's exchange passes from an explicit initial assignment instead
 * of the contiguous fill — the "polish" mode the multilevel partitioner
 * uses to seed a short flat-cut refinement (Mapper::MultilevelOee).
 * Exchanges preserve per-node loads, so whatever capacities @p initial
 * respects stay respected; the flat cut never increases.
 */
std::vector<NodeId> oee_polish(const InteractionGraph& g,
                               std::vector<NodeId> initial, int num_nodes,
                               const OeeOptions& opts = {});

/** Convenience: run OEE on a circuit's interaction graph. */
hw::QubitMapping oee_map(const qir::Circuit& c, int num_nodes,
                         const OeeOptions& opts = {});

/** Capacity-aware convenience over a machine shape. */
hw::QubitMapping oee_map(const qir::Circuit& c, const hw::Machine& m,
                         const OeeOptions& opts = {});

/**
 * Same, over a prebuilt interaction graph — lets callers that partition
 * one circuit against many machine shapes (e.g. driver::run_sweep)
 * construct the graph once instead of per configuration.
 */
hw::QubitMapping oee_map(const InteractionGraph& g, const hw::Machine& m,
                         const OeeOptions& opts = {});

} // namespace autocomm::partition
