/**
 * @file
 * Tests for the communication aggregation pass (paper §4.2 / Alg. 1):
 * structural invariants, the worked Figure-4 example, the soundness
 * guarantee that block reordering preserves circuit semantics, and
 * item-for-item equality with a plain full-gap-walk reference pass.
 */
#include <gtest/gtest.h>

#include "support/log.hpp"

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "autocomm/aggregate.hpp"
#include "circuits/library.hpp"
#include "circuits/qft.hpp"
#include "partition/mapper.hpp"
#include "partition/mappers.hpp"
#include "partition/oee.hpp"
#include "qir/commute.hpp"
#include "qir/decompose.hpp"
#include "qir/unitary.hpp"
#include "verify/random_circuit.hpp"

namespace {

using namespace autocomm;
using namespace autocomm::pass;
using qir::Circuit;

hw::QubitMapping
fig4_map()
{
    std::vector<NodeId> nodes;
    for (int n : circuits::figure4_mapping())
        nodes.push_back(n);
    return hw::QubitMapping(nodes);
}

/** Every remote gate appears in exactly one block; absorbed gates are
 * disjoint from members and from other blocks. */
void
check_partition_invariant(const Circuit& c, const hw::QubitMapping& map,
                          const std::vector<CommBlock>& blocks)
{
    std::set<std::size_t> seen;
    std::size_t remote_total = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
        if (map.is_remote(c[i]))
            ++remote_total;

    std::size_t member_total = 0;
    for (const CommBlock& b : blocks) {
        EXPECT_FALSE(b.members.empty());
        EXPECT_TRUE(std::is_sorted(b.members.begin(), b.members.end()));
        EXPECT_TRUE(std::is_sorted(b.absorbed.begin(), b.absorbed.end()));
        for (std::size_t i : b.members) {
            EXPECT_TRUE(map.is_remote(c[i])) << "member " << i;
            EXPECT_TRUE(seen.insert(i).second) << "gate " << i << " twice";
            // Every member involves the hub and a qubit on remote_node.
            EXPECT_TRUE(c[i].acts_on(b.hub));
            const QubitId other =
                c[i].qs[0] == b.hub ? c[i].qs[1] : c[i].qs[0];
            EXPECT_EQ(map.node_of(other), b.remote_node);
            EXPECT_EQ(map.node_of(b.hub), b.hub_node);
        }
        for (std::size_t i : b.absorbed) {
            EXPECT_FALSE(map.is_remote(c[i])) << "absorbed remote " << i;
            EXPECT_TRUE(seen.insert(i).second) << "gate " << i << " twice";
            EXPECT_LT(i, b.members.back());
            EXPECT_GT(i, b.members.front());
        }
        ++member_total;
    }
    std::size_t members = 0;
    for (const CommBlock& b : blocks)
        members += b.members.size();
    EXPECT_EQ(members, remote_total);
}

TEST(Aggregate, SparseModeMakesOneBlockPerGate)
{
    const Circuit c = circuits::figure4_program();
    const auto map = fig4_map();
    AggregateOptions opts;
    opts.use_commutation = false;
    const auto blocks = aggregate(c, map, opts);
    EXPECT_EQ(blocks.size(), map.count_remote(c));
    for (const CommBlock& b : blocks) {
        EXPECT_EQ(b.members.size(), 1u);
        EXPECT_TRUE(b.absorbed.empty());
    }
    check_partition_invariant(c, map, blocks);
}

TEST(Aggregate, Figure4FormsBursts)
{
    const Circuit c = circuits::figure4_program();
    const auto map = fig4_map();
    const auto blocks = aggregate(c, map);
    check_partition_invariant(c, map, blocks);
    // Burst aggregation must beat sparse: fewer blocks than remote gates.
    EXPECT_LT(blocks.size(), map.count_remote(c));
    // The q2 <-> node A burst (the paper's q3/node-A pair) must exist with
    // at least 3 member gates.
    bool found_q2_burst = false;
    for (const CommBlock& b : blocks)
        if (b.hub == 2 && b.remote_node == 0 && b.members.size() >= 3)
            found_q2_burst = true;
    EXPECT_TRUE(found_q2_burst);
}

TEST(Aggregate, ReorderingPreservesSemantics_Figure4)
{
    const Circuit c = circuits::figure4_program();
    const auto map = fig4_map();
    const auto blocks = aggregate(c, map);
    std::vector<std::size_t> starts;
    const Circuit r = reorder_with_blocks(c, blocks, &starts);
    EXPECT_EQ(r.size(), c.size());
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
    ASSERT_EQ(starts.size(), blocks.size());
}

TEST(Aggregate, ReorderingPreservesSemantics_SmallQft)
{
    const Circuit c = qir::decompose(circuits::make_qft(8));
    const auto map = hw::QubitMapping::contiguous(8, 2);
    const auto blocks = aggregate(c, map);
    check_partition_invariant(c, map, blocks);
    const Circuit r = reorder_with_blocks(c, blocks);
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
}

TEST(Aggregate, ReorderingPreservesSemantics_RandomStress)
{
    // Random circuits over 8 qubits / 2 nodes: the reordered circuit must
    // always be unitary-equivalent to the original.
    support::Rng rng(2022);
    for (int trial = 0; trial < 12; ++trial) {
        Circuit c(8);
        for (int g = 0; g < 60; ++g) {
            const int kind = static_cast<int>(rng.next_below(6));
            const QubitId a = static_cast<QubitId>(rng.next_below(8));
            QubitId b = static_cast<QubitId>(rng.next_below(8));
            while (b == a)
                b = static_cast<QubitId>(rng.next_below(8));
            switch (kind) {
              case 0: c.cx(a, b); break;
              case 1: c.rz(a, rng.next_double()); break;
              case 2: c.h(a); break;
              case 3: c.t(a); break;
              case 4: c.cx(b, a); break;
              default: c.rx(a, rng.next_double()); break;
            }
        }
        const auto map = hw::QubitMapping::contiguous(8, 2);
        const auto blocks = aggregate(c, map);
        check_partition_invariant(c, map, blocks);
        const Circuit r = reorder_with_blocks(c, blocks);
        EXPECT_TRUE(qir::circuits_equivalent(c, r)) << "trial " << trial;
    }
}

TEST(Aggregate, QftBurstsGrowWithNodeSize)
{
    // With t qubits per node, QFT hubs accumulate ~2(t-1)+ remote CX per
    // block; larger nodes must produce larger maximal blocks.
    const Circuit c16 = qir::decompose(circuits::make_qft(16));
    const auto blocks4 =
        aggregate(c16, hw::QubitMapping::contiguous(16, 4));
    const auto blocks8 =
        aggregate(c16, hw::QubitMapping::contiguous(16, 8));
    std::size_t max4 = 0, max8 = 0;
    for (const auto& b : blocks4)
        max4 = std::max(max4, b.members.size());
    for (const auto& b : blocks8)
        max8 = std::max(max8, b.members.size());
    EXPECT_GT(max4, max8);
}

TEST(Aggregate, CommutationBeatsSparseOnQft)
{
    const Circuit c = qir::decompose(circuits::make_qft(20));
    const auto map = hw::QubitMapping::contiguous(20, 4);
    const auto burst = aggregate(c, map);
    AggregateOptions sparse;
    sparse.use_commutation = false;
    const auto single = aggregate(c, map, sparse);
    EXPECT_LT(burst.size(), single.size() / 3);
}

TEST(Aggregate, BarrierBreaksBlocks)
{
    // Two remote CX on the same pair, split by a barrier: two blocks.
    Circuit c(4);
    c.cx(0, 2).barrier().cx(0, 2);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    const auto blocks = aggregate(c, map);
    EXPECT_EQ(blocks.size(), 2u);

    Circuit c2(4);
    c2.cx(0, 2).cx(0, 2);
    EXPECT_EQ(aggregate(c2, map).size(), 1u);
}

TEST(Aggregate, NonCommutingRemoteGateBreaksBlock)
{
    // CX(0,2), then CX(2,3)... wait gates within one node are local; use
    // a remote gate on a different pair that shares the hub's far qubit.
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3); // {0,1},{2,3},{4,5}
    c.cx(0, 2);  // pair (0, node1)
    c.cx(4, 2);  // pair (4, node1) — shares target q2, commutes
    c.cx(0, 3);  // pair (0, node1) again
    const auto blocks = aggregate(c, map);
    // CX(4,2) shares q2 as target with CX(0,2): both X-type on q2, so the
    // q0 block may extend across it.
    bool has_two_gate_block = false;
    for (const auto& b : blocks)
        if (b.hub == 0 && b.members.size() == 2)
            has_two_gate_block = true;
    EXPECT_TRUE(has_two_gate_block);

    Circuit c2(6);
    c2.cx(0, 2); // pair (0, node1)
    c2.cx(2, 4); // q2 now a control: breaks X-axis context on q2...
    c2.cx(0, 2);
    const auto blocks2 = aggregate(c2, map);
    // ...but the interrupting gate is itself a complete block between the
    // two members, so iterative refinement nests it and the q0 burst
    // survives (both node1 comm qubits are in use while it runs).
    ASSERT_EQ(blocks2.size(), 2u);
    bool found_nested = false;
    for (std::size_t b = 0; b < blocks2.size(); ++b) {
        if (blocks2[b].hub == 0) {
            EXPECT_EQ(blocks2[b].members.size(), 2u);
            EXPECT_EQ(blocks2[b].children.size(), 1u);
        } else {
            EXPECT_NE(blocks2[b].parent, -1);
            found_nested = true;
        }
    }
    EXPECT_TRUE(found_nested);
}

TEST(Aggregate, NestingRespectsCommCapacity)
{
    // With comm_capacity 1 the same program cannot nest: sessions would
    // need two comm qubits on the shared node.
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3);
    c.cx(0, 2).cx(2, 4).cx(0, 2);
    AggregateOptions opts;
    opts.comm_capacity = 1;
    const auto blocks = aggregate(c, map, opts);
    for (const auto& b : blocks) {
        EXPECT_EQ(b.parent, -1);
        EXPECT_TRUE(b.children.empty());
    }
}

TEST(Aggregate, NestedReorderingPreservesSemantics)
{
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3);
    c.h(0).cx(0, 2).t(4).cx(2, 4).cx(0, 2).h(4).cx(2, 4).cx(0, 3);
    const auto blocks = aggregate(c, map);
    const Circuit r = reorder_with_blocks(c, blocks);
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
}

TEST(Aggregate, AbsorbsLocalGatesInsideWindow)
{
    Circuit c(4);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    c.cx(0, 2);
    c.h(2);      // local 1q on the remote target: not commuting (X vs H)
    c.cx(0, 2);
    const auto blocks = aggregate(c, map);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].members.size(), 2u);
    EXPECT_EQ(blocks[0].absorbed.size(), 1u);
    const Circuit r = reorder_with_blocks(c, blocks);
    EXPECT_TRUE(qir::circuits_equivalent(c, r));
}

TEST(Aggregate, HubTwoQubitLocalGateBreaksBlock)
{
    // A local CX acting on the hub between two remote gates cannot be
    // absorbed and does not commute: the block must split.
    Circuit c(4);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    c.cx(0, 2);
    c.cx(1, 0); // local, touches hub q0 as target (X vs Diag: no commute)
    c.cx(0, 2);
    const auto blocks = aggregate(c, map);
    for (const auto& b : blocks)
        EXPECT_EQ(b.members.size(), 1u);
}

TEST(Aggregate, RejectsRemoteThreeQubitGate)
{
    Circuit c(4);
    c.ccx(0, 1, 3);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    EXPECT_THROW(aggregate(c, map), support::UserError);
}

TEST(Aggregate, DeterministicOutput)
{
    const Circuit c = qir::decompose(circuits::make_qft(12));
    const auto map = hw::QubitMapping::contiguous(12, 3);
    const auto a = aggregate(c, map);
    const auto b = aggregate(c, map);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].members, b[i].members);
        EXPECT_EQ(a[i].hub, b[i].hub);
    }
}

// ------------------------------------------- reference-equivalence check
// pass::aggregate skips gap gates that share no qubit with the growing
// block, checks commutation against its own per-qubit copy of the
// block's context, and rejects a gap holding a fence before walking it.
// The reference below is the plain serial pass, which steps over every
// gap gate with a qir::BlockContext; both must produce the same blocks,
// item for item.

/** What the reference saw: evidence that a case set exercises every
 * shortcut the production walk takes. */
struct Probe
{
    std::size_t fence_gaps = 0;    ///< gaps failed by a fence
    std::size_t scan_nests = 0;    ///< extensions that nested a child
    std::size_t merge_commits = 0; ///< refinement merges committed
    std::size_t skip_gaps = 0;     ///< gaps with a gate off the support

    void
    add(const Probe& o)
    {
        fence_gaps += o.fence_gaps;
        scan_nests += o.scan_nests;
        merge_commits += o.merge_commits;
        skip_gaps += o.skip_gaps;
    }
};

/** The serial aggregation pass with a full gap walk (Algorithm 1's
 * linear merge per pair, densest first, then iterative refinement). */
class ReferenceAggregator
{
  public:
    ReferenceAggregator(const Circuit& c, const hw::QubitMapping& map,
                        const AggregateOptions& opts)
        : c_(c), map_(map), opts_(opts), n_(c.size()),
          num_nodes_(std::max(1, map.num_nodes())), remote_(n_, 0),
          owner_(n_, -1)
    {
    }

    std::vector<CommBlock>
    run()
    {
        for (std::size_t i = 0; i < n_; ++i)
            if (c_[i].num_qubits >= 2 && map_.is_remote(c_[i]))
                remote_[i] = 1;
        if (!opts_.use_commutation) {
            for (std::size_t i = 0; i < n_; ++i)
                if (remote_[i])
                    emit_block({i}, {}, {}, c_[i].qs[0],
                               map_.node_of(c_[i].qs[1]));
            return std::move(out_);
        }
        rank_pairs();
        for (std::size_t pi : order_)
            scan_pair(pairs_[pi]);
        refine_phase();
        return sorted_output();
    }

    const Probe& probe() const { return probe_; }

  private:
    struct Pair
    {
        QubitId hub;
        NodeId rnode;
        std::vector<std::size_t> gates;
    };

    struct Builder
    {
        std::vector<std::size_t> members, absorbed, children;
        qir::BlockContext ctx;
    };

    static bool
    is_fence(const qir::Gate& g)
    {
        return g.kind == qir::GateKind::Barrier ||
               !qir::is_unitary_gate(g.kind) || g.cond_bit >= 0;
    }

    /** Probe: true if @p g is a non-fence gate sharing no qubit with
     * @p ctx — exactly the gates the production walk skips. */
    static bool
    off_support(const qir::Gate& g, const qir::BlockContext& ctx)
    {
        for (int k = 0; k < g.num_qubits; ++k)
            if (ctx.touches(g.qs[static_cast<std::size_t>(k)]))
                return false;
        return !is_fence(g);
    }

    void
    emit_block(std::vector<std::size_t> members,
               std::vector<std::size_t> absorbed,
               std::vector<std::size_t> children, QubitId hub, NodeId rnode)
    {
        CommBlock blk;
        blk.hub = hub;
        blk.hub_node = map_.node_of(hub);
        blk.remote_node = rnode;
        blk.members = std::move(members);
        blk.absorbed = std::move(absorbed);
        blk.children = std::move(children);
        std::sort(blk.absorbed.begin(), blk.absorbed.end());
        std::sort(blk.children.begin(), blk.children.end(),
                  [&](std::size_t x, std::size_t y) {
                      return out_[x].window_begin() < out_[y].window_begin();
                  });
        const int id = static_cast<int>(out_.size());
        for (std::size_t i : blk.members)
            owner_[i] = id;
        for (std::size_t i : blk.absorbed)
            owner_[i] = id;
        for (std::size_t ch : blk.children)
            out_[ch].parent = id;
        out_.push_back(std::move(blk));
    }

    std::size_t
    top_ancestor(std::size_t b) const
    {
        while (out_[b].parent != -1)
            b = static_cast<std::size_t>(out_[b].parent);
        return b;
    }

    /** Touch set, session load and context of block @p b, recomputed
     * from scratch on every call (no memo to go stale). */
    void
    summarize(std::size_t b, std::vector<QubitId>& touched,
              std::vector<std::pair<NodeId, int>>& load,
              qir::BlockContext& ctx) const
    {
        auto note = [&touched](QubitId q) {
            if (std::find(touched.begin(), touched.end(), q) ==
                touched.end())
                touched.push_back(q);
        };
        for (const auto* list : {&out_[b].members, &out_[b].absorbed})
            for (std::size_t i : *list) {
                ctx.absorb(c_[i]);
                for (int k = 0; k < c_[i].num_qubits; ++k)
                    note(c_[i].qs[static_cast<std::size_t>(k)]);
            }
        load = {{out_[b].hub_node, 1}, {out_[b].remote_node, 2}};
        for (std::size_t ch : out_[b].children) {
            std::vector<QubitId> ct;
            std::vector<std::pair<NodeId, int>> cl;
            qir::BlockContext cc;
            summarize(ch, ct, cl, cc);
            ctx.merge(cc);
            for (QubitId q : ct)
                note(q);
            for (const auto& [node, l] : cl) {
                bool found = false;
                const int base = (node == out_[b].hub_node ||
                                  node == out_[b].remote_node)
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
    }

    void
    rank_pairs()
    {
        std::map<long, std::size_t> index;
        auto note_pair = [&](QubitId hub, NodeId rnode, std::size_t gate) {
            const long key = static_cast<long>(hub) * num_nodes_ + rnode;
            auto [it, inserted] = index.try_emplace(key, pairs_.size());
            if (inserted)
                pairs_.push_back({hub, rnode, {}});
            pairs_[it->second].gates.push_back(gate);
        };
        for (std::size_t i = 0; i < n_; ++i) {
            if (!remote_[i])
                continue;
            note_pair(c_[i].qs[0], map_.node_of(c_[i].qs[1]), i);
            note_pair(c_[i].qs[1], map_.node_of(c_[i].qs[0]), i);
        }
        order_.resize(pairs_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        std::sort(order_.begin(), order_.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (pairs_[a].gates.size() != pairs_[b].gates.size())
                          return pairs_[a].gates.size() >
                                 pairs_[b].gates.size();
                      if (pairs_[a].hub != pairs_[b].hub)
                          return pairs_[a].hub < pairs_[b].hub;
                      return pairs_[a].rnode < pairs_[b].rnode;
                  });
    }

    void
    finalize(Builder& b, QubitId hub, NodeId rnode)
    {
        if (b.members.empty())
            return;
        emit_block(std::move(b.members), std::move(b.absorbed),
                   std::move(b.children), hub, rnode);
        b = Builder();
    }

    void
    scan_pair(const Pair& pair)
    {
        Builder cur;
        std::size_t prev = 0;
        for (std::size_t idx : pair.gates) {
            if (owner_[idx] != -1)
                continue;
            if (cur.members.empty()) {
                cur.members.push_back(idx);
                cur.ctx.absorb(c_[idx]);
                prev = idx;
                continue;
            }
            qir::BlockContext ctx2 = cur.ctx;
            std::vector<std::size_t> pending, pending_children;
            bool ok = true, skipped = false;
            for (std::size_t j = prev + 1; j < idx && ok; ++j) {
                const qir::Gate& g = c_[j];
                skipped |= off_support(g, ctx2);
                if (is_fence(g)) {
                    ++probe_.fence_gaps;
                    ok = false;
                    break;
                }
                if (owner_[j] != -1) {
                    const std::size_t top =
                        top_ancestor(static_cast<std::size_t>(owner_[j]));
                    if (contains(pending_children, top) ||
                        contains(cur.children, top))
                        continue;
                    if (ctx2.commutes(g))
                        continue;
                    ok = false;
                    if (opts_.absorb_local_gates &&
                        nestable(top, pair.hub, map_.node_of(pair.hub),
                                 pair.rnode, prev, idx, cur.children,
                                 pending_children)) {
                        pending_children.push_back(top);
                        ctx2.merge(context_of(top));
                        ok = true;
                    }
                    continue;
                }
                if (ctx2.commutes(g))
                    continue;
                if (absorbable(g, j, pair.hub)) {
                    pending.push_back(j);
                    ctx2.absorb(g);
                } else {
                    ok = false;
                }
            }
            probe_.skip_gaps += skipped ? 1 : 0;
            if (ok) {
                probe_.scan_nests += pending_children.empty() ? 0 : 1;
                cur.members.push_back(idx);
                ctx2.absorb(c_[idx]);
                cur.ctx = std::move(ctx2);
                cur.absorbed.insert(cur.absorbed.end(), pending.begin(),
                                    pending.end());
                cur.children.insert(cur.children.end(),
                                    pending_children.begin(),
                                    pending_children.end());
            } else {
                finalize(cur, pair.hub, pair.rnode);
                cur.members.push_back(idx);
                cur.ctx.absorb(c_[idx]);
            }
            prev = idx;
        }
        finalize(cur, pair.hub, pair.rnode);
    }

    static bool
    contains(const std::vector<std::size_t>& v, std::size_t x)
    {
        return std::find(v.begin(), v.end(), x) != v.end();
    }

    bool
    absorbable(const qir::Gate& g, std::size_t j, QubitId hub) const
    {
        if (!opts_.absorb_local_gates)
            return false;
        return g.is_single_qubit() ||
               (g.num_qubits >= 2 && !remote_[j] && !g.acts_on(hub));
    }

    qir::BlockContext
    context_of(std::size_t b) const
    {
        std::vector<QubitId> t;
        std::vector<std::pair<NodeId, int>> l;
        qir::BlockContext ctx;
        summarize(b, t, l, ctx);
        return ctx;
    }

    /** May complete block @p top nest inside the gap (lo, hi) of a block
     * on (hub, rnode) that already holds @p kids and @p pending_kids? */
    bool
    nestable(std::size_t top, QubitId hub, NodeId hub_node, NodeId rnode,
             std::size_t lo, std::size_t hi,
             const std::vector<std::size_t>& kids,
             const std::vector<std::size_t>& pending_kids) const
    {
        const CommBlock& cb = out_[top];
        if (!(cb.window_begin() > lo && cb.window_end() < hi))
            return false;
        std::vector<QubitId> touched;
        std::vector<std::pair<NodeId, int>> load;
        qir::BlockContext ctx;
        summarize(top, touched, load, ctx);
        if (std::find(touched.begin(), touched.end(), hub) != touched.end())
            return false;
        for (const auto* list : {&kids, &pending_kids})
            for (std::size_t sib : *list)
                if (out_[sib].window_begin() <= cb.window_end() &&
                    cb.window_begin() <= out_[sib].window_end())
                    return false;
        for (const auto& [node, l] : load)
            if (l + ((node == hub_node || node == rnode) ? 1 : 0) >
                opts_.comm_capacity)
                return false;
        return true;
    }

    bool
    try_merge(std::size_t a, std::size_t b2)
    {
        const CommBlock& A = out_[a];
        const CommBlock& B = out_[b2];
        const std::size_t lo = A.members.back();
        const std::size_t hi = B.members.front();
        qir::BlockContext ctx = context_of(a);
        ctx.merge(context_of(b2));
        std::vector<std::size_t> pending, pending_children;
        bool skipped = false;
        auto fail = [&]() {
            probe_.skip_gaps += skipped ? 1 : 0;
            return false;
        };
        for (std::size_t j = lo + 1; j < hi; ++j) {
            const qir::Gate& g = c_[j];
            skipped |= off_support(g, ctx);
            if (is_fence(g)) {
                ++probe_.fence_gaps;
                return fail();
            }
            if (owner_[j] != -1) {
                const std::size_t top =
                    top_ancestor(static_cast<std::size_t>(owner_[j]));
                if (top == a || top == b2 || contains(pending_children, top))
                    continue;
                if (ctx.commutes(g))
                    continue;
                if (!nestable(top, A.hub, A.hub_node, A.remote_node, lo, hi,
                              A.children, pending_children))
                    return fail();
                pending_children.push_back(top);
                ctx.merge(context_of(top));
                continue;
            }
            if (ctx.commutes(g))
                continue;
            if (!absorbable(g, j, A.hub))
                return fail();
            pending.push_back(j);
            ctx.absorb(g);
        }
        probe_.skip_gaps += skipped ? 1 : 0;
        ++probe_.merge_commits;

        CommBlock& Am = out_[a];
        CommBlock& Bm = out_[b2];
        const int a_id = static_cast<int>(a);
        Am.members.insert(Am.members.end(), Bm.members.begin(),
                          Bm.members.end());
        Am.absorbed.insert(Am.absorbed.end(), Bm.absorbed.begin(),
                           Bm.absorbed.end());
        Am.absorbed.insert(Am.absorbed.end(), pending.begin(),
                           pending.end());
        std::sort(Am.absorbed.begin(), Am.absorbed.end());
        for (const auto* list : {&Bm.members, &Bm.absorbed, &pending})
            for (std::size_t i : *list)
                owner_[i] = a_id;
        for (const auto* list : {&Bm.children, &pending_children})
            for (std::size_t ch : *list) {
                out_[ch].parent = a_id;
                Am.children.push_back(ch);
            }
        std::sort(Am.children.begin(), Am.children.end(),
                  [&](std::size_t x, std::size_t y) {
                      return out_[x].window_begin() < out_[y].window_begin();
                  });
        Bm.members.clear();
        Bm.absorbed.clear();
        Bm.children.clear();
        return true;
    }

    void
    refine_phase()
    {
        if (!(opts_.use_commutation && opts_.absorb_local_gates))
            return;
        for (int round = 0; round < 8; ++round) {
            bool changed = false;
            // The production pass walks its groups in std::unordered_map
            // order; sweep digests depend on it, so the reference must
            // walk them the same way.
            std::unordered_map<long, std::vector<std::size_t>> groups;
            for (std::size_t b = 0; b < out_.size(); ++b)
                if (!out_[b].members.empty() && out_[b].parent == -1)
                    groups[static_cast<long>(out_[b].hub) * num_nodes_ +
                           out_[b].remote_node]
                        .push_back(b);
            std::vector<std::vector<std::size_t>> lists;
            for (auto& [key, list] : groups) {
                (void)key;
                std::sort(list.begin(), list.end(),
                          [&](std::size_t x, std::size_t y) {
                              return out_[x].window_begin() <
                                     out_[y].window_begin();
                          });
                lists.push_back(std::move(list));
            }
            for (const std::vector<std::size_t>& list : lists) {
                for (std::size_t i = 0; i + 1 < list.size(); ++i) {
                    const std::size_t a = list[i], b2 = list[i + 1];
                    if (out_[a].members.empty() ||
                        out_[b2].members.empty() || out_[a].parent != -1 ||
                        out_[b2].parent != -1)
                        continue;
                    changed |= try_merge(a, b2);
                }
            }
            if (!changed)
                break;
        }
        std::vector<long> new_index(out_.size(), -1);
        std::vector<CommBlock> compact;
        for (std::size_t b = 0; b < out_.size(); ++b) {
            if (out_[b].members.empty())
                continue;
            new_index[b] = static_cast<long>(compact.size());
            compact.push_back(std::move(out_[b]));
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
        out_ = std::move(compact);
    }

    std::vector<CommBlock>
    sorted_output()
    {
        std::vector<std::size_t> perm(out_.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        std::sort(perm.begin(), perm.end(),
                  [&](std::size_t a, std::size_t b) {
                      return out_[a].window_begin() < out_[b].window_begin();
                  });
        std::vector<std::size_t> inverse(out_.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            inverse[perm[i]] = i;
        std::vector<CommBlock> sorted;
        for (std::size_t i : perm)
            sorted.push_back(std::move(out_[i]));
        for (CommBlock& blk : sorted) {
            if (blk.parent != -1)
                blk.parent = static_cast<long>(
                    inverse[static_cast<std::size_t>(blk.parent)]);
            for (std::size_t& ch : blk.children)
                ch = inverse[ch];
        }
        return sorted;
    }

    const Circuit& c_;
    const hw::QubitMapping& map_;
    AggregateOptions opts_;
    std::size_t n_;
    long num_nodes_;
    std::vector<char> remote_;
    std::vector<int> owner_;
    std::vector<CommBlock> out_;
    std::vector<Pair> pairs_;
    std::vector<std::size_t> order_;
    Probe probe_;
};

/** Compare pass::aggregate with the reference on one instance, item for
 * item; returns what the reference walk saw. */
Probe
check_against_reference(const Circuit& c, const hw::QubitMapping& map,
                        const AggregateOptions& opts, const std::string& what)
{
    SCOPED_TRACE(what);
    ReferenceAggregator ref(c, map, opts);
    const std::vector<CommBlock> want = ref.run();
    const std::vector<CommBlock> got = aggregate(c, map, opts);
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        const CommBlock& g = got[i];
        const CommBlock& w = want[i];
        if (g.members != w.members || g.absorbed != w.absorbed ||
            g.children != w.children || g.parent != w.parent ||
            g.hub != w.hub || g.hub_node != w.hub_node ||
            g.remote_node != w.remote_node) {
            ADD_FAILURE() << "block " << i << " differs from the reference";
            break;
        }
    }
    return ref.probe();
}

TEST(AggregateReference, PaperSuiteUnderOee)
{
    Probe seen;
    for (const circuits::BenchmarkSpec& spec : circuits::paper_suite()) {
        const Circuit c = qir::decompose(circuits::make_benchmark(spec));
        const hw::QubitMapping map = partition::oee_map(c, spec.num_nodes);
        seen.add(check_against_reference(c, map, {}, spec.label()));
    }
    EXPECT_GT(seen.scan_nests, 0u);
    EXPECT_GT(seen.merge_commits, 0u);
    EXPECT_GT(seen.skip_gaps, 0u);
}

TEST(AggregateReference, LargeCircuitsUnderMultilevel)
{
    Probe seen;
    for (circuits::Family f : {circuits::Family::QFT, circuits::Family::MCTR,
                               circuits::Family::QAOA}) {
        const circuits::BenchmarkSpec spec =
            circuits::spec_for({f}, 300, 30);
        const Circuit c =
            qir::decompose(circuits::make_benchmark(spec, 2022));
        const hw::Machine m = hw::Machine::homogeneous(30, 10);
        const hw::QubitMapping map = partition::map_with(
            partition::Mapper::Multilevel,
            partition::InteractionGraph::from_circuit(c), m);
        seen.add(check_against_reference(c, map, {}, spec.label()));
    }
    EXPECT_GT(seen.merge_commits, 0u);
    EXPECT_GT(seen.skip_gaps, 0u);
}

/** A random circuit with barriers, mid-circuit measurements, resets and
 * classically conditioned gates spliced in (every fence the gap walk
 * must stop at), plus node-local CCX gates, the only three-operand gates
 * aggregation accepts. The qubits map contiguously onto 4 nodes of 4. */
Circuit
fenced_random_circuit(std::uint64_t seed)
{
    verify::RandomCircuitOptions o;
    o.num_qubits = 16;
    o.depth = 48;
    o.allow_ccx = seed % 2 == 1;
    o.seed = seed;
    const Circuit base = qir::decompose(verify::random_circuit(o));
    support::Rng rng(seed + 7);
    Circuit c(base.num_qubits(), 1);
    for (const qir::Gate& g : base) {
        c.add(g);
        const QubitId q = static_cast<QubitId>(rng.next_below(16));
        const QubitId node = q - q % 4; // first qubit of q's node
        switch (rng.next_below(64)) {
          case 0: c.barrier(); break;
          case 1: c.measure(q, 0); break;
          case 2: c.reset(q); break;
          case 3: c.add(qir::Gate::x(q).conditioned_on(0, 1)); break;
          case 4:
          case 5:
            c.ccx(node + (q + 1) % 4, node + (q + 2) % 4, q);
            break;
          default: break;
        }
    }
    return c;
}

TEST(AggregateReference, OptionVariantsAndFencedRandomCircuits)
{
    std::vector<std::pair<std::string, AggregateOptions>> variants(4);
    variants[0].first = "default";
    variants[1].first = "no-absorb";
    variants[1].second.absorb_local_gates = false;
    variants[2].first = "capacity-1";
    variants[2].second.comm_capacity = 1;
    variants[3].first = "capacity-3";
    variants[3].second.comm_capacity = 3;

    Probe seen;
    for (const auto& [name, opts] : variants) {
        for (const circuits::BenchmarkSpec& spec :
             circuits::small_suite()) {
            const Circuit c =
                qir::decompose(circuits::make_benchmark(spec));
            const hw::QubitMapping map =
                partition::oee_map(c, spec.num_nodes);
            seen.add(check_against_reference(c, map, opts,
                                             spec.label() + " " + name));
        }
        for (std::uint64_t seed = 0; seed < 24; ++seed)
            seen.add(check_against_reference(
                fenced_random_circuit(seed),
                partition::contiguous_map(16, 4), opts,
                "random seed " + std::to_string(seed) + " " + name));
    }
    // Non-vacuous: every shortcut of the production walk was taken.
    EXPECT_GT(seen.fence_gaps, 0u);
    EXPECT_GT(seen.scan_nests, 0u);
    EXPECT_GT(seen.merge_commits, 0u);
    EXPECT_GT(seen.skip_gaps, 0u);
}

} // namespace
