#include "autocomm/aggregate.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "obs/decision.hpp"
#include "qir/commute.hpp"
#include "support/log.hpp"

namespace autocomm::pass {

namespace {

using qir::AxisMask;
using qir::BlockContext;
using qir::Gate;
using qir::GateKind;

/** Fences that no block may extend across. */
bool
is_fence(const Gate& g)
{
    return g.kind == GateKind::Barrier || !qir::is_unitary_gate(g.kind) ||
           g.cond_bit >= 0;
}

struct PairInfo
{
    QubitId hub;
    NodeId rnode;
    std::vector<std::size_t> gates;
};

bool
contains(const std::vector<std::size_t>& v, std::size_t x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

/** A gate's operand qubits, padded to three slots with a sentinel qubit
 * whose context mask is always clear. */
using Operands = std::array<QubitId, 3>;

/**
 * The aggregation pass state machine.
 *
 * Gap walks (extending a block across the gates between two of its
 * members, in the scan and in refinement) only look at gates that share
 * a qubit with the block's commutation context: any other non-fence gate
 * commutes with the block, so stepping over it cannot change the
 * outcome. A per-qubit mask array mirrors the growing block's
 * BlockContext for that test and for the commutation check, and a gap
 * holding a fence is rejected before it is walked.
 */
struct Aggregator
{
    const qir::Circuit& c;
    const hw::QubitMapping& map;
    const AggregateOptions& opts;

    std::size_t n;
    long num_nodes;
    std::vector<char> remote;
    std::vector<int> owner;
    std::vector<CommBlock> out;
    std::vector<PairInfo> pairs;
    std::vector<std::size_t> order;

    // Memoized per finalized block: transitive qubit-touch set, per-node
    // session load, and accumulated commutation context (blocks are
    // frozen once finalized, except for acquiring a parent; refinement
    // merges invalidate explicitly).
    std::vector<std::vector<QubitId>> touch_cache;
    std::vector<std::vector<std::pair<NodeId, int>>> load_cache;
    std::vector<BlockContext> ctx_cache;

    // Gap-walk side tables, alive for one aggregate() call. The sentinel
    // qubit is num_qubits. `fences` lists the fence positions in
    // ascending order (a sparse list rather than a per-gate table: most
    // circuits have none). `ctx_mask[q]` is the growing block's context
    // on q — kInCtx | its axis mask, exactly what BlockContext would
    // hold, or 0 if the block does not touch q — and `ctx_qubits` lists
    // the touched qubits, so clearing costs the support size.
    static constexpr AxisMask kInCtx = 0x80;
    std::vector<Operands> operands;
    std::vector<std::size_t> fences;
    std::vector<AxisMask> ctx_mask;
    std::vector<QubitId> ctx_qubits;

    // Reused gap-walk output: local gates and complete blocks the walk
    // would fold into the block.
    std::vector<std::size_t> pending;
    std::vector<std::size_t> pending_children;

    Aggregator(const qir::Circuit& c_, const hw::QubitMapping& map_,
               const AggregateOptions& opts_)
        : c(c_), map(map_), opts(opts_), n(c_.size()),
          num_nodes(std::max(1, map_.num_nodes())), remote(n, 0),
          owner(n, -1)
    {
    }

    // ---- Block emission ------------------------------------------------

    void
    emit_block(std::vector<std::size_t> members,
               std::vector<std::size_t> absorbed,
               std::vector<std::size_t> children, QubitId hub, NodeId rnode)
    {
        if (members.empty())
            return;
        // Burst-pair outcome: a multi-gate block is an aggregation win
        // ("accept"); a single lone gate means the scan found nothing to
        // merge and communication stays per-gate ("reject").
        obs::decision("aggregate.burst",
                      members.size() + absorbed.size() >= 2 ? "accept"
                                                            : "reject",
                      obs::arg("hub", hub), obs::arg("rnode", rnode),
                      obs::arg("members", members.size()),
                      obs::arg("absorbed", absorbed.size()),
                      obs::arg("children", children.size()));
        CommBlock blk;
        blk.hub = hub;
        blk.hub_node = map.node_of(hub);
        blk.remote_node = rnode;
        blk.members = std::move(members);
        blk.absorbed = std::move(absorbed);
        blk.children = std::move(children);
        std::sort(blk.absorbed.begin(), blk.absorbed.end());
        std::sort(blk.children.begin(), blk.children.end(),
                  [&](std::size_t x, std::size_t y) {
                      return out[x].window_begin() < out[y].window_begin();
                  });
        const int id = static_cast<int>(out.size());
        for (std::size_t i : blk.members)
            owner[i] = id;
        for (std::size_t i : blk.absorbed)
            owner[i] = id;
        for (std::size_t ch : blk.children)
            out[ch].parent = id;
        out.push_back(std::move(blk));
    }

    // ---- Nesting support ----------------------------------------------
    // A complete, already-claimed block whose whole window falls inside
    // the interval being merged can ride along as a *nested child*: its
    // communication session overlaps the parent's, which the hardware
    // supports as long as no node needs more than comm_capacity sessions
    // at once (each session pins one comm qubit per endpoint).

    std::size_t
    top_ancestor(std::size_t b) const
    {
        while (out[b].parent != -1)
            b = static_cast<std::size_t>(out[b].parent);
        return b;
    }

    void
    ensure_cached(std::size_t b)
    {
        if (b < touch_cache.size() && !touch_cache[b].empty())
            return;
        if (touch_cache.size() < out.size()) {
            touch_cache.resize(out.size());
            load_cache.resize(out.size());
            ctx_cache.resize(out.size());
        }
        BlockContext ctx;
        std::vector<QubitId> touched;
        auto note = [&touched](QubitId q) {
            if (std::find(touched.begin(), touched.end(), q) ==
                touched.end())
                touched.push_back(q);
        };
        for (std::size_t i : out[b].members) {
            ctx.absorb(c[i]);
            for (int k = 0; k < c[i].num_qubits; ++k)
                note(c[i].qs[static_cast<std::size_t>(k)]);
        }
        for (std::size_t i : out[b].absorbed) {
            ctx.absorb(c[i]);
            for (int k = 0; k < c[i].num_qubits; ++k)
                note(c[i].qs[static_cast<std::size_t>(k)]);
        }

        // Session load: one comm qubit on the hub side; two on the remote
        // side (a TP block's return teleport transiently needs both the
        // vessel and the EPR source there — schemes are assigned later,
        // so count conservatively).
        std::vector<std::pair<NodeId, int>> load = {
            {out[b].hub_node, 1}, {out[b].remote_node, 2}};
        for (std::size_t ch : out[b].children) {
            ensure_cached(ch);
            ctx.merge(ctx_cache[ch]);
            for (QubitId q : touch_cache[ch])
                note(q);
            for (const auto& [node, l] : load_cache[ch]) {
                bool found = false;
                const int base =
                    (node == out[b].hub_node || node == out[b].remote_node)
                        ? 1
                        : 0;
                for (auto& [n2, cur] : load)
                    if (n2 == node) {
                        cur = std::max(cur, base + l);
                        found = true;
                    }
                if (!found)
                    load.emplace_back(node, l);
            }
        }
        touch_cache[b] = std::move(touched);
        load_cache[b] = std::move(load);
        ctx_cache[b] = std::move(ctx);
    }

    void
    invalidate_cache(std::size_t b)
    {
        if (b < touch_cache.size()) {
            touch_cache[b].clear();
            load_cache[b].clear();
            ctx_cache[b] = BlockContext();
        }
    }

    // ---- The growing block's context (BlockContext semantics) --------

    /** Add axis mask @p m on qubit @p q: intersect, or start the entry. */
    void
    narrow(QubitId q, AxisMask m)
    {
        AxisMask& cur = ctx_mask[static_cast<std::size_t>(q)];
        if (cur == 0) {
            cur = kInCtx | m;
            ctx_qubits.push_back(q);
        } else {
            cur &= kInCtx | m;
        }
    }

    /** BlockContext::absorb of gate @p i. */
    void
    absorb_gate(std::size_t i)
    {
        const Gate& g = c[i];
        for (std::size_t k = 0; k < g.num_qubits; ++k)
            narrow(g.qs[k], g.axis_on(g.qs[k]));
    }

    /** BlockContext::merge of finalized block @p b (and descendants). */
    void
    merge_block(std::size_t b)
    {
        ensure_cached(b);
        for (QubitId q : touch_cache[b])
            narrow(q, ctx_cache[b].mask(q));
    }

    void
    clear_context()
    {
        for (QubitId q : ctx_qubits)
            ctx_mask[static_cast<std::size_t>(q)] = 0;
        ctx_qubits.clear();
    }

    /** True if gate @p j shares a qubit with the context. */
    bool
    on_support(std::size_t j) const
    {
        const Operands& o = operands[j];
        return (ctx_mask[static_cast<std::size_t>(o[0])] |
                ctx_mask[static_cast<std::size_t>(o[1])] |
                ctx_mask[static_cast<std::size_t>(o[2])]) != 0;
    }

    /** BlockContext::commutes of non-fence gate @p j. */
    bool
    commutes(std::size_t j) const
    {
        const Gate& g = c[j];
        for (std::size_t k = 0; k < g.num_qubits; ++k) {
            const AxisMask m = ctx_mask[static_cast<std::size_t>(g.qs[k])];
            if (m != 0 && (m & g.axis_on(g.qs[k])) == 0)
                return false;
        }
        return true;
    }

    // ---- Preprocessing -------------------------------------------------

    void
    build_tables()
    {
        const QubitId sentinel = c.num_qubits();
        operands.assign(n, {sentinel, sentinel, sentinel});
        for (std::size_t i = 0; i < n; ++i) {
            const Gate& g = c[i];
            for (std::size_t k = 0; k < g.num_qubits; ++k)
                operands[i][k] = g.qs[k];
            if (is_fence(g))
                fences.push_back(i);
        }
        ctx_mask.assign(static_cast<std::size_t>(sentinel) + 1, 0);
    }

    void
    flag_remote()
    {
        for (std::size_t i = 0; i < n; ++i) {
            const Gate& g = c[i];
            if (g.num_qubits >= 2 && map.is_remote(g)) {
                if (g.num_qubits > 2)
                    support::fatal("aggregate: remote %d-qubit gate at "
                                   "%zu; decompose first",
                                   g.num_qubits, i);
                remote[i] = 1;
            }
        }
    }

    void
    rank_pairs()
    {
        constexpr std::size_t kNone = static_cast<std::size_t>(-1);
        std::vector<std::size_t> pair_index(
            static_cast<std::size_t>(c.num_qubits()) *
                static_cast<std::size_t>(num_nodes),
            kNone);
        auto note_pair = [&](QubitId hub, NodeId rnode, std::size_t gate) {
            std::size_t& slot =
                pair_index[static_cast<std::size_t>(hub) *
                               static_cast<std::size_t>(num_nodes) +
                           static_cast<std::size_t>(rnode)];
            if (slot == kNone) {
                slot = pairs.size();
                pairs.push_back({hub, rnode, {}});
            }
            pairs[slot].gates.push_back(gate);
        };
        for (std::size_t i = 0; i < n; ++i) {
            if (!remote[i])
                continue;
            const Gate& g = c[i];
            note_pair(g.qs[0], map.node_of(g.qs[1]), i);
            note_pair(g.qs[1], map.node_of(g.qs[0]), i);
        }
        order.resize(pairs.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (pairs[a].gates.size() != pairs[b].gates.size())
                          return pairs[a].gates.size() >
                                 pairs[b].gates.size();
                      if (pairs[a].hub != pairs[b].hub)
                          return pairs[a].hub < pairs[b].hub;
                      return pairs[a].rnode < pairs[b].rnode;
                  });
    }

    // ---- The gap walk ----------------------------------------------------

    /**
     * May complete block @p top nest inside the gap (lo, hi) of a block
     * on (hub, rnode) that already holds @p kids (plus pending_children)?
     */
    bool
    nestable(std::size_t top, QubitId hub, NodeId rnode, std::size_t lo,
             std::size_t hi, const std::vector<std::size_t>& kids)
    {
        const CommBlock& cb = out[top];
        if (!opts.absorb_local_gates ||
            !(cb.window_begin() > lo && cb.window_end() < hi))
            return false;
        ensure_cached(top);
        const std::vector<QubitId>& tt = touch_cache[top];
        if (std::find(tt.begin(), tt.end(), hub) != tt.end())
            return false;
        auto overlaps = [&](std::size_t other) {
            return out[other].window_begin() <= cb.window_end() &&
                   cb.window_begin() <= out[other].window_end();
        };
        if (std::any_of(kids.begin(), kids.end(), overlaps) ||
            std::any_of(pending_children.begin(), pending_children.end(),
                        overlaps))
            return false;
        const NodeId hub_node = map.node_of(hub);
        for (const auto& [node, l] : load_cache[top]) {
            const int parent_use =
                (node == hub_node || node == rnode) ? 1 : 0;
            if (l + parent_use > opts.comm_capacity)
                return false;
        }
        return true;
    }

    /**
     * Walk the gap (lo, hi) of a block on (hub, rnode) with children
     * @p kids, growing the context by every gate and complete block the
     * merge would fold in; those are collected in pending /
     * pending_children. Every gap gate must be pushed out of the window
     * (it commutes with the block so far), absorbed (a local gate off the
     * hub), or lie in a complete block that nests. Returns false when one
     * cannot; the caller then discards the context and the pending lists.
     */
    bool
    walk_gap(std::size_t lo, std::size_t hi, QubitId hub, NodeId rnode,
             const std::vector<std::size_t>& kids)
    {
        pending.clear();
        pending_children.clear();
        const auto fence = std::upper_bound(fences.begin(), fences.end(), lo);
        if (fence != fences.end() && *fence < hi)
            return false;
        for (std::size_t j = lo + 1; j < hi; ++j) {
            if (!on_support(j))
                continue; // commutes with the whole block
            if (owner[j] != -1) {
                const std::size_t top =
                    top_ancestor(static_cast<std::size_t>(owner[j]));
                if (contains(pending_children, top) || contains(kids, top))
                    continue; // inside a nested child: handled
                if (commutes(j))
                    continue; // whole-block push-out, gate by gate
                if (!nestable(top, hub, rnode, lo, hi, kids))
                    return false;
                pending_children.push_back(top);
                // Later push-outs must commute past the nested child's
                // gates too (descendants included — the memoized context
                // carries their axis masks).
                merge_block(top);
                continue;
            }
            if (commutes(j))
                continue; // push out of the window
            const Gate& g = c[j];
            const bool absorbable =
                opts.absorb_local_gates &&
                (g.is_single_qubit() ||
                 (g.num_qubits >= 2 && !remote[j] && !g.acts_on(hub)));
            if (!absorbable)
                return false;
            pending.push_back(j);
            absorb_gate(j);
        }
        return true;
    }

    // ---- Linear merge per pair, densest pair first ---------------------

    void
    scan_pair(const PairInfo& pair)
    {
        std::vector<std::size_t> members, absorbed, children;
        auto emit = [&]() {
            if (members.empty())
                return;
            emit_block(std::move(members), std::move(absorbed),
                       std::move(children), pair.hub, pair.rnode);
            members.clear();
            absorbed.clear();
            children.clear();
            clear_context();
        };

        for (std::size_t idx : pair.gates) {
            if (owner[idx] != -1)
                continue; // claimed by an earlier block
            // Extend the block across the gap since its last member. The
            // walk grows the context in place: a failed extension emits
            // the block, which discards the context anyway.
            if (!members.empty() &&
                walk_gap(members.back(), idx, pair.hub, pair.rnode,
                         children)) {
                absorbed.insert(absorbed.end(), pending.begin(),
                                pending.end());
                children.insert(children.end(), pending_children.begin(),
                                pending_children.end());
            } else {
                emit();
            }
            members.push_back(idx);
            absorb_gate(idx);
        }
        emit();
    }

    // ---- Iterative refinement (paper §4.2): block-level merging --------
    // The per-pair scans above fragment when a not-yet-formed block of
    // another pair interrupts an interval. Now that every remote gate is
    // claimed, repeatedly merge adjacent same-pair blocks, nesting the
    // complete blocks that lie between them, until a fixpoint.

    /**
     * Can B (@p b2) fold into the adjacent same-pair block A (@p a)? The
     * gap between A's last and B's first member must clear the walk
     * against both blocks' combined context; on success pending /
     * pending_children hold what the merge claims.
     */
    bool
    evaluate_merge(std::size_t a, std::size_t b2)
    {
        const CommBlock& A = out[a];
        merge_block(a);
        merge_block(b2);
        const bool ok = walk_gap(A.members.back(), out[b2].members.front(),
                                 A.hub, A.remote_node, A.children);
        clear_context();
        return ok;
    }

    /** Commit: fold B and the gap into A. */
    void
    commit_merge(std::size_t a, std::size_t b2)
    {
        CommBlock& A = out[a];
        CommBlock& B = out[b2];
        const int a_id = static_cast<int>(a);
        A.members.insert(A.members.end(), B.members.begin(),
                         B.members.end());
        A.absorbed.insert(A.absorbed.end(), B.absorbed.begin(),
                          B.absorbed.end());
        A.absorbed.insert(A.absorbed.end(), pending.begin(), pending.end());
        std::sort(A.absorbed.begin(), A.absorbed.end());
        for (std::size_t i : B.members)
            owner[i] = a_id;
        for (std::size_t i : B.absorbed)
            owner[i] = a_id;
        for (std::size_t i : pending)
            owner[i] = a_id;
        for (std::size_t ch : B.children) {
            out[ch].parent = a_id;
            A.children.push_back(ch);
        }
        for (std::size_t ch : pending_children) {
            out[ch].parent = a_id;
            A.children.push_back(ch);
        }
        std::sort(A.children.begin(), A.children.end(),
                  [&](std::size_t x, std::size_t y) {
                      return out[x].window_begin() < out[y].window_begin();
                  });
        B.members.clear();
        B.absorbed.clear();
        B.children.clear();
        invalidate_cache(a);
        invalidate_cache(b2);
    }

    bool
    try_merge(std::size_t a, std::size_t b2)
    {
        const bool merged = evaluate_merge(a, b2);
        // Recorded before commit_merge mutates the blocks, so the gain
        // (gates folded from B plus the gap gates claimed) is readable.
        if (obs::enabled()) {
            const CommBlock& A = out[a];
            const CommBlock& B = out[b2];
            obs::decision(
                "aggregate.merge", merged ? "commit" : "reject",
                obs::arg("hub", A.hub), obs::arg("rnode", A.remote_node),
                obs::arg("left", a), obs::arg("right", b2),
                obs::arg("gain_gates",
                         merged ? B.members.size() + B.absorbed.size() +
                                      pending.size()
                                : std::size_t{0}));
        }
        if (merged)
            commit_merge(a, b2);
        return merged;
    }

    void
    refine_phase()
    {
        if (!(opts.use_commutation && opts.absorb_local_gates))
            return;
        for (int round = 0; round < 8; ++round) {
            bool changed = false;
            // Group alive top-level blocks by (hub, remote node), walked
            // in map iteration order (sweep CSV digests depend on it).
            std::unordered_map<long, std::vector<std::size_t>> groups;
            for (std::size_t b = 0; b < out.size(); ++b) {
                if (out[b].members.empty() || out[b].parent != -1)
                    continue;
                groups[static_cast<long>(out[b].hub) * num_nodes +
                       out[b].remote_node]
                    .push_back(b);
            }
            std::vector<std::vector<std::size_t>> lists;
            lists.reserve(groups.size());
            for (auto& [key, list] : groups) {
                (void)key;
                std::sort(list.begin(), list.end(),
                          [&](std::size_t x, std::size_t y) {
                              return out[x].window_begin() <
                                     out[y].window_begin();
                          });
                lists.push_back(std::move(list));
            }
            for (const std::vector<std::size_t>& list : lists)
                for (std::size_t i = 0; i + 1 < list.size(); ++i) {
                    // An earlier merge this round may have emptied a
                    // block or nested it; the lists are a round-start
                    // snapshot, so re-check.
                    const std::size_t a = list[i];
                    const std::size_t b2 = list[i + 1];
                    if (out[a].members.empty() || out[b2].members.empty() ||
                        out[a].parent != -1 || out[b2].parent != -1)
                        continue;
                    if (try_merge(a, b2))
                        changed = true;
                }
            if (!changed)
                break;
        }

        // Drop emptied blocks, remapping indices.
        std::vector<long> new_index(out.size(), -1);
        std::vector<CommBlock> compact;
        for (std::size_t b = 0; b < out.size(); ++b) {
            if (out[b].members.empty())
                continue;
            new_index[b] = static_cast<long>(compact.size());
            compact.push_back(std::move(out[b]));
        }
        for (CommBlock& blk : compact) {
            if (blk.parent != -1)
                blk.parent =
                    new_index[static_cast<std::size_t>(blk.parent)];
            std::size_t w = 0;
            for (std::size_t ch : blk.children)
                if (new_index[ch] != -1)
                    blk.children[w++] =
                        static_cast<std::size_t>(new_index[ch]);
            blk.children.resize(w);
        }
        out = std::move(compact);
    }

    // ---- Final deterministic order -------------------------------------

    std::vector<CommBlock>
    sorted_output()
    {
        // Deterministic block order: by window start (remapping the
        // parent/children links through the permutation).
        std::vector<std::size_t> perm(out.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        std::sort(perm.begin(), perm.end(),
                  [&](std::size_t a, std::size_t b) {
                      return out[a].window_begin() < out[b].window_begin();
                  });
        std::vector<std::size_t> inverse(out.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            inverse[perm[i]] = i;
        std::vector<CommBlock> sorted;
        sorted.reserve(out.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            sorted.push_back(std::move(out[perm[i]]));
        for (CommBlock& blk : sorted) {
            if (blk.parent != -1)
                blk.parent = static_cast<long>(
                    inverse[static_cast<std::size_t>(blk.parent)]);
            for (std::size_t& ch : blk.children)
                ch = inverse[ch];
        }
        return sorted;
    }

    std::vector<CommBlock>
    run()
    {
        flag_remote();

        if (!opts.use_commutation) {
            // Sparse communication: one block per remote gate (the
            // paper's "aggregation without gate commutation" arm,
            // Fig. 17a).
            for (std::size_t i = 0; i < n; ++i) {
                if (!remote[i])
                    continue;
                emit_block({i}, {}, {}, c[i].qs[0],
                           map.node_of(c[i].qs[1]));
            }
            return std::move(out);
        }

        build_tables();
        rank_pairs();
        for (std::size_t pi : order)
            scan_pair(pairs[pi]);
        refine_phase();
        return sorted_output();
    }
};

} // namespace

std::vector<CommBlock>
aggregate(const qir::Circuit& c, const hw::QubitMapping& map,
          const AggregateOptions& opts)
{
    Aggregator agg(c, map, opts);
    return agg.run();
}

} // namespace autocomm::pass
