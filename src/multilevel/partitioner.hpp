/**
 * @file
 * The multilevel topology-aware qubit partitioner: heavy-edge-matching
 * coarsening (coarsen.hpp) -> greedy region-growing initial partition
 * (initial.hpp) -> per-level boundary FM refinement (refine.hpp) under a
 * hop/fidelity-aware CostModel (cost.hpp).
 *
 * Compared to the O(n^2)-per-step OEE exchange heuristic this runs in
 * roughly O(E log n) and optimizes the *routed* communication cost, not
 * the flat cut: an edge cut between far-apart or degraded-link nodes
 * costs what the scheduler will actually charge for it. On the paper's
 * all-to-all perfect machine the cost model degenerates to the flat cut,
 * so the two objectives coincide there.
 */
#pragma once

#include <vector>

#include "hw/machine.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/cost.hpp"
#include "multilevel/refine.hpp"
#include "partition/interaction_graph.hpp"

namespace autocomm::multilevel {

/**
 * Partition the vertices of @p g onto capacities.size() nodes under
 * @p cost, never exceeding any node's capacity. Coarsening stops at
 * max(96, 4 x num_nodes) vertices (CoarsenOptions); each uncoarsening
 * level runs at most 8 FM rounds (refine.hpp). A flat CostModel gives
 * the classic topology-blind objective. Throws
 * support::UserError when sum(capacities) < num_qubits. Deterministic
 * for fixed inputs.
 */
std::vector<NodeId>
multilevel_partition(const partition::InteractionGraph& g,
                     const std::vector<int>& capacities,
                     const CostModel& cost);

/**
 * Convenience over a machine: capacities from m.capacities(), cost from
 * the machine's routing table and link fidelities
 * (CostModel::from_machine).
 */
std::vector<NodeId>
multilevel_partition(const partition::InteractionGraph& g,
                     const hw::Machine& m);

} // namespace autocomm::multilevel
