/**
 * @file
 * Communication aggregation pass (paper §4.2, Algorithm 1).
 *
 * Stage 1 of AutoComm: expose burst communication by grouping remote
 * two-qubit gates into qubit-node blocks.
 *
 *  - Preprocessing: qubit-node pairs are ranked by their remote gate
 *    count; the densest pair is grown first (it likely yields the largest
 *    block).
 *  - Linear merge: consecutive blocks of a pair merge across interleaved
 *    gates when every interleaved gate either provably commutes with the
 *    whole block content so far (it is pushed out of the window) or can be
 *    absorbed (single-qubit gates, and multi-qubit gates that do not touch
 *    the hub and are not themselves remote). A non-commuting remote gate
 *    of another pair breaks the block, exactly as in Algorithm 1.
 *  - Iterative refinement: remaining pairs are processed in descending
 *    remote-gate-count order until every remote gate is claimed.
 *
 * Cost: a merge walks the gap between two same-pair gates, but only the
 * gates sharing a qubit with the growing block (or a fence) can change
 * its outcome — any other gate commutes with the whole block. The walk
 * tests each gap gate's operands against a per-qubit mirror of the
 * block's commutation context and reads nothing else for the gates off
 * it; a gap holding a fence is rejected before it is walked.
 *
 * Soundness invariant: the reordered circuit produced by
 * reorder_with_blocks() is unitary-equivalent to the input (validated in
 * the test suite).
 */
#pragma once

#include <vector>

#include "autocomm/burst.hpp"
#include "hw/machine.hpp"
#include "qir/circuit.hpp"

namespace autocomm::pass {

/** Options for the aggregation pass. */
struct AggregateOptions
{
    /**
     * Use gate commutation to merge blocks across interleaved gates. When
     * false the pass degenerates to sparse communication (every remote
     * gate is its own block) — the Fig. 17(a) ablation arm.
     */
    bool use_commutation = true;

    /**
     * Absorb non-hub local gates into block windows. Disabling this makes
     * blocks break on any non-commuting interleaved gate (stricter,
     * for experimentation), and also disables block nesting.
     */
    bool absorb_local_gates = true;

    /**
     * Communication qubits per node available to overlapping (nested)
     * sessions — the paper's near-term assumption is 2. Nesting a child
     * block is rejected when any node would need more concurrent
     * sessions than this.
     */
    int comm_capacity = 2;
};

/**
 * Group the remote gates of @p c (under @p map) into burst blocks. Every
 * remote multi-qubit gate lands in exactly one block; local gates may be
 * absorbed into at most one block. The input must already be decomposed
 * to one- and two-qubit gates (CCX is rejected if remote).
 */
std::vector<CommBlock> aggregate(const qir::Circuit& c,
                                 const hw::QubitMapping& map,
                                 const AggregateOptions& opts = {});

} // namespace autocomm::pass
