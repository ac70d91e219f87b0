#include "autocomm/burst.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace autocomm::pass {

const char*
pattern_name(Pattern p)
{
    switch (p) {
      case Pattern::Single: return "single";
      case Pattern::UniControl: return "uni-control";
      case Pattern::UniTarget: return "uni-target";
      case Pattern::Bidirectional: return "bidirectional";
    }
    return "?";
}

const char*
scheme_name(Scheme s)
{
    return s == Scheme::Cat ? "cat" : "tp";
}

std::vector<std::size_t>
CommBlock::absorbed_hub_1q(const qir::Circuit& c) const
{
    std::vector<std::size_t> out;
    for (std::size_t i : absorbed) {
        const qir::Gate& g = c[i];
        if (g.is_single_qubit() && g.qs[0] == hub)
            out.push_back(i);
    }
    return out;
}

std::string
CommBlock::to_string(const qir::Circuit& c) const
{
    std::string s = support::strprintf(
        "block hub=q%d node%d->node%d %s/%s comms=%d members=[", hub,
        hub_node, remote_node, pattern_name(pattern), scheme_name(scheme),
        num_comms);
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i)
            s += ' ';
        s += std::to_string(members[i]);
    }
    s += "] absorbed=" + std::to_string(absorbed.size());
    if (!members.empty())
        s += " first=" + c[members.front()].to_string();
    return s;
}

namespace {

/**
 * Visit block @p blk's body items in order, in one pass over its gates in
 * ascending index order. A gate is keyed by the window_begin of the first
 * child whose window has not ended before it, when that window contains
 * it, and by its own index otherwise; the keys never decrease, and each
 * child follows the gates that share its key. Gate items carry original
 * circuit indices.
 */
template <typename Visit>
void
for_each_item(const std::vector<CommBlock>& blocks, const CommBlock& blk,
              Visit&& visit)
{
    const std::vector<std::size_t>& mem = blk.members;
    const std::vector<std::size_t>& abd = blk.absorbed;
    const std::vector<std::size_t>& ch = blk.children;
    std::size_t mi = 0, ai = 0;
    std::size_t open = 0; // first child whose window may still hold a gate
    std::size_t next = 0; // first child not yet visited
    while (mi < mem.size() || ai < abd.size()) {
        const bool member =
            ai == abd.size() || (mi < mem.size() && mem[mi] < abd[ai]);
        const std::size_t g = member ? mem[mi++] : abd[ai++];
        while (open < ch.size() && blocks[ch[open]].window_end() < g)
            ++open;
        std::size_t key = g;
        if (open < ch.size() && blocks[ch[open]].window_begin() <= g)
            key = blocks[ch[open]].window_begin();
        while (next < ch.size() && blocks[ch[next]].window_begin() < key)
            visit(BodyItem{.index = ch[next++], .is_child = true});
        visit(BodyItem{.index = g, .is_member = member});
    }
    while (next < ch.size())
        visit(BodyItem{.index = ch[next++], .is_child = true});
}

/**
 * Number block @p b's gate items by their reordered positions, starting
 * at @p pos, and record its transitive gate count. Returns the position
 * after the body.
 */
std::size_t
place(BlockBodies& bodies, std::size_t b, std::size_t pos)
{
    const std::size_t start = pos;
    for (std::size_t k = bodies.off[b]; k < bodies.off[b + 1]; ++k) {
        BodyItem& it = bodies.items[k];
        if (it.is_child)
            pos = place(bodies, it.index, pos);
        else
            it.index = pos++;
    }
    bodies.total[b] = pos - start;
    return pos;
}

/** Recursively emit a block's body into @p out, recording start
 * positions. */
void
emit_block(const qir::Circuit& c, const std::vector<CommBlock>& blocks,
           std::size_t b, qir::Circuit& out,
           std::vector<std::size_t>* block_order)
{
    if (block_order)
        (*block_order)[b] = out.size();
    for_each_item(blocks, blocks[b], [&](const BodyItem& item) {
        if (item.is_child)
            emit_block(c, blocks, item.index, out, block_order);
        else
            out.add(c[item.index]);
    });
}

} // namespace

BlockBodies
layout_bodies(const std::vector<CommBlock>& blocks,
              const std::vector<std::size_t>& block_start)
{
    BlockBodies bodies;
    bodies.off.resize(blocks.size() + 1);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const CommBlock& blk = blocks[b];
        bodies.off[b + 1] = bodies.off[b] + blk.members.size() +
                            blk.absorbed.size() + blk.children.size();
    }
    bodies.items.resize(bodies.off.back());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        BodyItem* out = bodies.items.data() + bodies.off[b];
        for_each_item(blocks, blocks[b],
                      [&out](const BodyItem& item) { *out++ = item; });
    }
    bodies.total.assign(blocks.size(), 0);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        if (blocks[b].parent == -1)
            place(bodies, b, block_start[b]);
    return bodies;
}

qir::Circuit
reorder_with_blocks(const qir::Circuit& c,
                    const std::vector<CommBlock>& blocks,
                    std::vector<std::size_t>* block_order)
{
    // gate index -> owning block (or -1).
    std::vector<int> owner(c.size(), -1);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const CommBlock& blk = blocks[b];
        if (blk.members.empty())
            support::fatal("reorder_with_blocks: empty block");
        for (std::size_t i : blk.members) {
            if (owner[i] != -1)
                support::fatal("reorder_with_blocks: gate %zu in two blocks",
                               i);
            owner[i] = static_cast<int>(b);
        }
        for (std::size_t i : blk.absorbed) {
            if (owner[i] != -1)
                support::fatal("reorder_with_blocks: gate %zu in two blocks",
                               i);
            owner[i] = static_cast<int>(b);
        }
    }

    if (block_order)
        block_order->assign(blocks.size(), 0);

    // Block gates are held back; a top-level block is emitted whole at
    // the last gate of its transitive window, which is its own last
    // member (children lie strictly inside).
    qir::Circuit out(c.num_qubits(), c.num_cbits());
    out.reserve(c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (owner[i] == -1) {
            out.add(c[i]);
            continue;
        }
        const auto b = static_cast<std::size_t>(owner[i]);
        if (blocks[b].parent == -1 && blocks[b].members.back() == i)
            emit_block(c, blocks, b, out, block_order);
    }
    if (out.size() != c.size())
        support::fatal("reorder_with_blocks: gate count changed (%zu -> "
                       "%zu)",
                       c.size(), out.size());
    return out;
}

} // namespace autocomm::pass
