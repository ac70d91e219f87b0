/**
 * @file
 * Tests for block-body layout (layout_bodies) and block reordering
 * (reorder_with_blocks), which share one linear merge: bodies must match
 * the sort-based reference definition item for item, and the reordering
 * must emit the same circuit and block starts as a reference emission
 * over those reference bodies. Checked on the paper suite under OEE
 * (including UCCSD's deeply nested bursts) and on random circuits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "autocomm/aggregate.hpp"
#include "circuits/library.hpp"
#include "partition/mappers.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"
#include "verify/random_circuit.hpp"

namespace {

using namespace autocomm;
using namespace autocomm::pass;
using qir::Circuit;

/**
 * Reference body of block @p b, by definition: own gates keyed by the
 * window_begin of the first child whose window contains them (else their
 * own index), children keyed by their window_begin and ordered after
 * same-key gates, sorted by (key, gate-before-child, index).
 */
std::vector<BodyItem>
reference_body(const std::vector<CommBlock>& blocks, std::size_t b)
{
    const CommBlock& blk = blocks[b];
    struct Keyed
    {
        std::size_t key;
        int tie;
        BodyItem item;
    };
    std::vector<Keyed> keyed;
    auto child_key_of = [&](std::size_t gate) {
        for (std::size_t ch : blk.children) {
            const CommBlock& cb = blocks[ch];
            if (gate >= cb.window_begin() && gate <= cb.window_end())
                return cb.window_begin();
        }
        return gate;
    };
    for (std::size_t i : blk.members)
        keyed.push_back(
            {child_key_of(i), 0, {.index = i, .is_member = true}});
    for (std::size_t i : blk.absorbed)
        keyed.push_back({child_key_of(i), 0, {.index = i}});
    for (std::size_t ch : blk.children)
        keyed.push_back(
            {blocks[ch].window_begin(), 1, {.index = ch, .is_child = true}});
    std::sort(keyed.begin(), keyed.end(),
              [](const Keyed& x, const Keyed& y) {
                  if (x.key != y.key)
                      return x.key < y.key;
                  if (x.tie != y.tie)
                      return x.tie < y.tie;
                  return x.item.index < y.item.index;
              });
    std::vector<BodyItem> out;
    for (const Keyed& k : keyed)
        out.push_back(k.item);
    return out;
}

/** Emit block @p b's flattened reference body, recording each block's
 * start and each gate's position in @p out. */
void
reference_emit(const Circuit& c, const std::vector<CommBlock>& blocks,
               std::size_t b, Circuit& out, std::vector<std::size_t>& start,
               std::vector<std::size_t>& where)
{
    start[b] = out.size();
    for (const BodyItem& item : reference_body(blocks, b)) {
        if (item.is_child) {
            reference_emit(c, blocks, item.index, out, start, where);
        } else {
            where[item.index] = out.size();
            out.add(c[item.index]);
        }
    }
}

/** Reference reordering: block gates are held back and each top-level
 * block's flattened reference body is emitted at its last member. */
Circuit
reference_reorder(const Circuit& c, const std::vector<CommBlock>& blocks,
                  std::vector<std::size_t>& start,
                  std::vector<std::size_t>& where)
{
    std::vector<char> owned(c.size(), 0);
    std::vector<long> release(c.size(), -1);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        for (std::size_t i : blocks[b].members)
            owned[i] = 1;
        for (std::size_t i : blocks[b].absorbed)
            owned[i] = 1;
        if (blocks[b].parent == -1)
            release[blocks[b].members.back()] = static_cast<long>(b);
    }
    start.assign(blocks.size(), 0);
    where.assign(c.size(), 0);
    Circuit out(c.num_qubits(), c.num_cbits());
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (!owned[i]) {
            where[i] = out.size();
            out.add(c[i]);
        } else if (release[i] != -1) {
            reference_emit(c, blocks, static_cast<std::size_t>(release[i]),
                           out, start, where);
        }
    }
    return out;
}

std::size_t
nesting_depth(const std::vector<CommBlock>& blocks, std::size_t b)
{
    std::size_t d = 0;
    for (long p = blocks[b].parent; p != -1;
         p = blocks[static_cast<std::size_t>(p)].parent)
        ++d;
    return d;
}

struct Shape
{
    std::size_t max_children = 0;
    std::size_t max_depth = 0;
};

/** Check layout_bodies and reorder_with_blocks against the references on
 * one instance; returns the nesting shape seen. */
Shape
check_instance(const Circuit& c, const hw::QubitMapping& map,
               const AggregateOptions& opts, const std::string& what)
{
    SCOPED_TRACE(what);
    const std::vector<CommBlock> blocks = aggregate(c, map, opts);

    std::vector<std::size_t> starts;
    const Circuit reordered = reorder_with_blocks(c, blocks, &starts);
    std::vector<std::size_t> ref_starts, where;
    const Circuit ref = reference_reorder(c, blocks, ref_starts, where);
    EXPECT_EQ(starts, ref_starts);
    EXPECT_EQ(reordered.size(), ref.size());
    for (std::size_t i = 0; i < std::min(reordered.size(), ref.size()); ++i)
        if (!(reordered[i] == ref[i])) {
            ADD_FAILURE() << "reordered circuit differs at " << i;
            break;
        }

    // Bodies match the reference item for item, with gates named by
    // their positions in the reference reordering.
    const BlockBodies bodies = layout_bodies(blocks, ref_starts);
    Shape shape;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::vector<BodyItem> want = reference_body(blocks, b);
        const auto got = bodies.body(b);
        if (!std::equal(want.begin(), want.end(), got.begin(), got.end(),
                        [&](const BodyItem& w, const BodyItem& g) {
                            return w.is_child == g.is_child &&
                                   w.is_member == g.is_member &&
                                   g.index == (w.is_child
                                                   ? w.index
                                                   : where[w.index]);
                        })) {
            ADD_FAILURE() << "body of block " << b << " differs";
            return shape;
        }
        std::size_t own = blocks[b].members.size() +
                          blocks[b].absorbed.size();
        for (std::size_t ch : blocks[b].children)
            own += bodies.total[ch];
        EXPECT_EQ(bodies.total[b], own) << "block " << b;
        shape.max_children =
            std::max(shape.max_children, blocks[b].children.size());
        shape.max_depth = std::max(shape.max_depth, nesting_depth(blocks, b));
    }
    return shape;
}

AggregateOptions
sparse()
{
    AggregateOptions o;
    o.use_commutation = false;
    return o;
}

TEST(BlockLayout, MatchesReferenceOnPaperSuite)
{
    for (const circuits::BenchmarkSpec& spec : circuits::paper_suite()) {
        const Circuit c = qir::decompose(circuits::make_benchmark(spec));
        const hw::QubitMapping map = partition::oee_map(c, spec.num_nodes);
        const Shape s = check_instance(c, map, {}, spec.label() + " default");
        check_instance(c, map, sparse(), spec.label() + " sparse");
        // Non-vacuous: UCCSD-16-8's bursts nest wide and deep.
        if (spec.family == circuits::Family::UCCSD && spec.num_qubits == 16) {
            EXPECT_GE(s.max_children, 2u);
            EXPECT_GE(s.max_depth, 2u);
        }
    }
}

TEST(BlockLayout, MatchesReferenceOnRandomCircuits)
{
    Shape seen;
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        verify::RandomCircuitOptions o;
        o.num_qubits = 16;
        o.depth = 40;
        o.allow_ccx = seed % 2 == 1;
        o.seed = seed;
        const Circuit c = qir::decompose(verify::random_circuit(o));
        const hw::QubitMapping map = partition::contiguous_map(16, 4);
        const Shape s = check_instance(c, map, {},
                                       "random seed " + std::to_string(seed));
        seen.max_children = std::max(seen.max_children, s.max_children);
        seen.max_depth = std::max(seen.max_depth, s.max_depth);
    }
    EXPECT_GE(seen.max_children, 2u);
}

} // namespace
