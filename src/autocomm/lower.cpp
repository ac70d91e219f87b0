#include "autocomm/lower.hpp"

#include <algorithm>
#include <functional>

#include "support/log.hpp"

namespace autocomm::pass {

namespace {

using comm::PhysicalLayout;
using qir::Gate;
using qir::GateKind;

/** Remap every operand of @p g through @p f. */
template <typename F>
Gate
remap(Gate g, F&& f)
{
    for (int k = 0; k < g.num_qubits; ++k) {
        auto& q = g.qs[static_cast<std::size_t>(k)];
        q = f(q);
    }
    return g;
}

/**
 * Hadamard conjugate of a single-qubit gate (H g H), defined for the
 * X-axis family that can appear on the hub of a unidirectional-target
 * block. Anything else is a compiler invariant violation.
 */
Gate
h_conjugate(const Gate& g)
{
    switch (g.kind) {
      case GateKind::X:
        return Gate::z(g.qs[0]);
      case GateKind::RX:
        return Gate::rz(g.qs[0], g.params[0]);
      case GateKind::SX:
        // H SX H = S up to global phase.
        return Gate::s(g.qs[0]);
      case GateKind::I:
        return g;
      default:
        support::fatal("lower: cannot H-conjugate %s on a target-pattern "
                       "hub",
                       qir::gate_name(g.kind));
    }
}

} // namespace

qir::Circuit
lower_reference(const qir::Circuit& c, const hw::QubitMapping& map,
                const hw::Machine& m)
{
    const PhysicalLayout layout(m, map);
    qir::Circuit out(layout.total_qubits(), c.num_cbits());
    for (const Gate& g : c)
        out.add(remap(g, [&](QubitId q) { return layout.data(q); }));
    return out;
}

qir::Circuit
lower_to_physical(const qir::Circuit& c, const hw::QubitMapping& map,
                  const hw::Machine& m, const CompileResult& result)
{
    if (c.size() != result.reordered.size())
        support::fatal("lower_to_physical: result does not match circuit "
                       "(%zu vs %zu gates)",
                       result.reordered.size(), c.size());
    const PhysicalLayout layout(m, map);
    const qir::Circuit& ordered = result.reordered;
    const std::vector<CommBlock>& blocks = result.blocks;
    qir::Circuit out(layout.total_qubits(), ordered.num_cbits());

    const BlockBodies bodies = layout_bodies(blocks, result.block_start);

    auto phys = [&](QubitId q) { return layout.data(q); };

    // Active communication sessions per node, to pick free comm qubits
    // for nested children (aggregation capped this at the machine's
    // comm-qubit count).
    std::vector<int> active(static_cast<std::size_t>(m.num_nodes), 0);
    auto comm_of = [&](NodeId node, int offset) {
        const int idx = active[static_cast<std::size_t>(node)] + offset;
        if (idx >= m.comm_qubits_per_node)
            support::fatal("lower: node %d needs %d concurrent comm "
                           "qubits but has %d",
                           node, idx + 1, m.comm_qubits_per_node);
        return layout.comm(node, idx);
    };

    std::function<void(std::size_t)> lower_block;

    // Emit one non-member body item (plain gate at data slots, or a
    // nested child block).
    auto emit_plain = [&](const BodyItem& it) {
        if (it.is_child)
            lower_block(it.index);
        else
            out.add(remap(ordered[it.index], phys));
    };

    lower_block = [&](std::size_t b) {
        const CommBlock& blk = blocks[b];
        const QubitId hub_p = layout.data(blk.hub);
        const QubitId comm_hub = comm_of(blk.hub_node, 0);
        const QubitId comm_rem = comm_of(blk.remote_node, 0);
        active[static_cast<std::size_t>(blk.hub_node)] += 1;
        active[static_cast<std::size_t>(blk.remote_node)] += 1;

        const std::span<const BodyItem> items = bodies.body(b);

        if (blk.scheme == Scheme::Cat) {
            std::vector<std::size_t> segments = blk.cat_segments;
            if (segments.empty())
                segments.push_back(blk.members.size());

            std::size_t k = 0;
            for (std::size_t seg : segments) {
                // Items before the segment's first member execute with
                // the share closed.
                while (k < items.size() &&
                       (items[k].is_child || !items[k].is_member)) {
                    emit_plain(items[k]);
                    ++k;
                }
                if (k >= items.size())
                    break;

                const bool seg_target =
                    (ordered[items[k].index].axis_on(blk.hub) &
                     qir::kAxisDiag) == 0;

                if (seg_target)
                    out.h(hub_p);
                comm::emit_epr(out, comm_hub, comm_rem);
                comm::emit_cat_entangle(out, hub_p, comm_hub, comm_rem);

                std::size_t members_run = 0;
                while (k < items.size() && members_run < seg) {
                    const BodyItem& it = items[k];
                    ++k;
                    if (it.is_child) {
                        lower_block(it.index);
                        continue;
                    }
                    const Gate& g = ordered[it.index];
                    if (it.is_member) {
                        ++members_run;
                        if (seg_target) {
                            if (g.kind != GateKind::CX)
                                support::fatal(
                                    "lower: target-pattern member %s is "
                                    "not a CX",
                                    qir::gate_name(g.kind));
                            const QubitId ctl =
                                g.qs[0] == blk.hub ? g.qs[1] : g.qs[0];
                            out.h(phys(ctl));
                            out.cx(comm_rem, phys(ctl));
                            out.h(phys(ctl));
                        } else {
                            out.add(remap(g, [&](QubitId q) {
                                return q == blk.hub ? comm_rem : phys(q);
                            }));
                        }
                    } else if (g.is_single_qubit() && g.qs[0] == blk.hub) {
                        if (seg_target)
                            out.add(remap(h_conjugate(g), phys));
                        else
                            out.add(remap(g, phys));
                    } else {
                        out.add(remap(g, phys));
                    }
                }
                comm::emit_cat_disentangle(out, hub_p, comm_rem);
                if (seg_target)
                    out.h(hub_p);
            }
            for (; k < items.size(); ++k)
                emit_plain(items[k]);
        } else {
            // TP block: teleport the hub over, run everything locally,
            // teleport it back over the node's second comm qubit.
            comm::emit_epr(out, comm_hub, comm_rem);
            comm::emit_teleport(out, hub_p, comm_hub, comm_rem);
            for (const BodyItem& it : items) {
                if (it.is_child) {
                    lower_block(it.index);
                    continue;
                }
                out.add(remap(ordered[it.index], [&](QubitId q) {
                    return q == blk.hub ? comm_rem : phys(q);
                }));
            }
            const QubitId comm_rem2 = comm_of(blk.remote_node, 0);
            comm::emit_epr(out, comm_rem2, hub_p);
            comm::emit_teleport(out, comm_rem, comm_rem2, hub_p);
        }

        active[static_cast<std::size_t>(blk.hub_node)] -= 1;
        active[static_cast<std::size_t>(blk.remote_node)] -= 1;
    };

    // ---- Walk the reordered stream ----
    std::vector<long> top_at(ordered.size(), -1);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        if (blocks[b].parent == -1)
            top_at[result.block_start[b]] = static_cast<long>(b);

    // Positions covered by any top-level block.
    std::vector<char> in_block(ordered.size(), 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (blocks[b].parent != -1)
            continue;
        for (std::size_t p = result.block_start[b];
             p < result.block_start[b] + bodies.total[b]; ++p)
            in_block[p] = 1;
    }

    std::size_t i = 0;
    while (i < ordered.size()) {
        if (top_at[i] >= 0) {
            const auto b = static_cast<std::size_t>(top_at[i]);
            lower_block(b);
            i += bodies.total[b];
            continue;
        }
        if (in_block[i])
            support::fatal("lower: inconsistent block layout at %zu", i);
        const Gate& g = ordered[i];
        if (g.kind != GateKind::Barrier)
            out.add(remap(g, phys));
        ++i;
    }

    // Normalize: every comm qubit back to |0>.
    for (NodeId node = 0; node < m.num_nodes; ++node)
        for (int k = 0; k < m.comm_qubits_per_node; ++k)
            out.reset(layout.comm(node, k));
    return out;
}

} // namespace autocomm::pass
