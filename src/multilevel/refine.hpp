/**
 * @file
 * Boundary Fiduccia–Mattheyses refinement — the third leg of the
 * multilevel partitioner, run at every uncoarsening level.
 *
 * Each round evaluates, for every boundary vertex, the gain of moving it
 * to another node — and, for boundary vertex pairs, of exchanging the
 * two (the move that stays feasible when every node is packed full, the
 * default machine shape) — under the topology/fidelity-aware CostModel,
 * then applies the profitable candidates greedily. Evaluation goes
 * node pair by node pair: the (p, q) step scores moves and exchanges
 * between nodes p and q against the partition as the round found it.
 * Application is deterministic — candidates are ordered by (gain,
 * vertex id), and each move's gain is recomputed against the live
 * partition before it is committed — so the weighted cut NEVER
 * increases (only strictly-positive recomputed gains commit).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "multilevel/cost.hpp"
#include "partition/interaction_graph.hpp"

namespace autocomm::multilevel {

/** What one refine() call did: move rounds run and moves applied. */
struct RefineStats
{
    int rounds = 0;
    std::size_t moves = 0;
};

/**
 * Greedy boundary refinement of @p part (vertex weights
 * @p vertex_weight, per-node @p capacities) under @p cost, for at most
 * 8 move rounds. Moves only ever target nodes with spare capacity, so a
 * feasible partition stays feasible; an infeasible one (coarse-level
 * overloads) is repaired by rebalance() first. Guarantees
 * weighted_cut(after) <= weighted_cut(before).
 */
RefineStats refine(const partition::InteractionGraph& g,
                   const std::vector<int>& vertex_weight,
                   const std::vector<int>& capacities,
                   const CostModel& cost, std::vector<NodeId>& part);

/**
 * Move vertices out of over-capacity nodes, cheapest cut increase
 * first, until every node fits or no move helps (possible only while
 * coarse vertex weights exceed every node's slack — level 0's unit
 * weights always succeed when total capacity suffices). Returns the
 * number of vertices moved.
 */
std::size_t rebalance(const partition::InteractionGraph& g,
                      const std::vector<int>& vertex_weight,
                      const std::vector<int>& capacities,
                      const CostModel& cost, std::vector<NodeId>& part);

} // namespace autocomm::multilevel
