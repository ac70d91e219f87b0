/**
 * @file
 * Boundary Fiduccia–Mattheyses refinement — the third leg of the
 * multilevel partitioner, run at every uncoarsening level.
 *
 * Each round evaluates, for every boundary vertex, the gain of moving it
 * to another node — and, for boundary vertex pairs, of exchanging the
 * two (the move that stays feasible when every node is packed full, the
 * default machine shape) — under the topology/fidelity-aware CostModel,
 * then applies the profitable candidates greedily. Evaluation is
 * parallelized across independent boundary node-pairs on a
 * support::ThreadPool: the (p, q) task scores moves and exchanges
 * between nodes p and q against a snapshot of the partition, touching
 * no state any other pair's task reads.
 * Application is serial and deterministic — candidates are merged per
 * vertex, ordered by (gain, vertex id), and each move's gain is
 * recomputed against the live partition before it is committed — so the
 * result is byte-identical across thread counts, and the weighted cut
 * NEVER increases (only strictly-positive recomputed gains commit).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "multilevel/cost.hpp"
#include "partition/interaction_graph.hpp"
#include "support/threadpool.hpp"

namespace autocomm::multilevel {

/** Knobs for refine(). */
struct RefineOptions
{
    /** Pool for parallel gain evaluation; nullptr runs serially. The
     * refined partition is identical either way. */
    support::ThreadPool* pool = nullptr;
};

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
                   const CostModel& cost, std::vector<NodeId>& part,
                   const RefineOptions& opts = {});

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
