/**
 * @file
 * Burst-communication block IR (paper §3.2, §4).
 *
 * A CommBlock is a group of remote two-qubit gates between one qubit (the
 * "hub") and one remote node, plus the local gates that were absorbed into
 * the block's execution window during aggregation. Blocks are annotations
 * over an immutable circuit: they store gate indices, never copies.
 */
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "qir/circuit.hpp"
#include "qir/types.hpp"

namespace autocomm::pass {

/** Communication pattern of a block (paper Fig. 9). */
enum class Pattern : std::uint8_t {
    Single,        ///< One remote gate (sparse communication).
    UniControl,    ///< Hub acts Z-diagonally (control side) in every gate.
    UniTarget,     ///< Hub is the X-type (target) side in every gate.
    Bidirectional, ///< Hub appears on both sides.
};

/** Communication scheme assigned to a block (paper §4.3). */
enum class Scheme : std::uint8_t {
    Cat, ///< Cat-entangler / cat-disentangler; 1 EPR pair per segment.
    TP,  ///< Teleport hub to the remote node and back; 2 EPR pairs.
};

const char* pattern_name(Pattern p);
const char* scheme_name(Scheme s);

/** One burst-communication block. */
struct CommBlock
{
    QubitId hub = kInvalidId;        ///< The single-qubit side.
    NodeId hub_node = kInvalidId;    ///< Node hosting the hub.
    NodeId remote_node = kInvalidId; ///< The node side of the burst.

    /** Circuit indices of the member remote gates, ascending. */
    std::vector<std::size_t> members;

    /**
     * Circuit indices of non-member gates that execute inside the block
     * window (could not be commuted out), ascending. Single-qubit gates on
     * the hub in this list are what blocks cheap Cat-Comm (paper's Tdg
     * example, Fig. 8 block 3).
     */
    std::vector<std::size_t> absorbed;

    /**
     * Nesting (paper §4.4's concurrent sessions): a complete block whose
     * window lies strictly inside this block's window may execute as a
     * nested child — its communication session overlaps this block's,
     * which is feasible because every node owns two communication qubits.
     * `children` lists nested block ids (into the same block vector),
     * ordered by window position; `parent` points back (or -1).
     */
    long parent = -1;
    std::vector<std::size_t> children;

    // ---- Filled by the assignment pass ----
    Pattern pattern = Pattern::Single;
    Scheme scheme = Scheme::Cat;
    /** Remote communications (EPR pairs) this block consumes. */
    int num_comms = 1;
    /**
     * Sizes (in member remote gates) of the per-invocation segments for
     * Cat-Comm with num_comms > 1; empty means one segment of all members.
     */
    std::vector<std::size_t> cat_segments;

    /** Number of member remote gates. */
    std::size_t size() const { return members.size(); }

    /** First member index (block window start). */
    std::size_t window_begin() const { return members.front(); }

    /** Last member index (block window end; absorbed gates never exceed
     * the last member by construction). */
    std::size_t window_end() const { return members.back(); }

    /** Absorbed single-qubit gates acting on the hub (ascending indices). */
    std::vector<std::size_t>
    absorbed_hub_1q(const qir::Circuit& c) const;

    /** Debug rendering. */
    std::string to_string(const qir::Circuit& c) const;
};

/**
 * For a remote two-qubit gate, the two candidate (hub, remote node) views:
 * (qs[0], node(qs[1])) and (qs[1], node(qs[0])).
 */
struct PairKey
{
    QubitId hub;
    NodeId remote_node;

    bool operator==(const PairKey&) const = default;
};

/** One element of a block's execution body: a plain gate or a nested
 * child block. */
struct BodyItem
{
    std::size_t index = 0;  ///< gate position, or block id when is_child
    bool is_child = false;
    bool is_member = false; ///< for gates: member vs absorbed
};

/**
 * Every block's execution body in one flat arena: block b's items are
 * items[off[b] .. off[b + 1]), and total[b] is its transitive gate count
 * (own gates plus all descendants').
 */
struct BlockBodies
{
    std::vector<BodyItem> items;
    std::vector<std::size_t> off;
    std::vector<std::size_t> total;

    std::span<const BodyItem>
    body(std::size_t b) const
    {
        return {items.data() + off[b], off[b + 1] - off[b]};
    }
};

/**
 * Lay out the execution body of every block in the reordered circuit:
 * its own members and absorbed gates merged with its nested children, in
 * window order, gates named by their reordered positions. Gates that
 * fall inside a child's window (they commute with that child) are
 * ordered before the child unit; reorder_with_blocks emits bodies in the
 * same order. Linear in the total body size: relies on members and
 * absorbed being ascending and children being ordered by window_begin,
 * as aggregation produces them.
 *
 * @param block_start the out-param of reorder_with_blocks.
 */
BlockBodies layout_bodies(const std::vector<CommBlock>& blocks,
                          const std::vector<std::size_t>& block_start);

/**
 * Build the reordered circuit in which every top-level block's gates
 * (including its nested children) are contiguous: gates are emitted in
 * original order except that block gates are buffered and released at the
 * position of the top-level block's last member. Soundness is guaranteed
 * by the aggregation pass's commutation checks and validated by
 * unitary-equivalence tests.
 *
 * @param block_order optional out-param: for each block (same order as
 *        @p blocks, nested blocks included), the position in the returned
 *        circuit where its first gate was emitted.
 */
qir::Circuit reorder_with_blocks(const qir::Circuit& c,
                                 const std::vector<CommBlock>& blocks,
                                 std::vector<std::size_t>* block_order =
                                     nullptr);

} // namespace autocomm::pass
