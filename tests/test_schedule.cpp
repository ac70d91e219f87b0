/**
 * @file
 * Tests for the communication scheduler / latency simulator (paper §4.4):
 * resource constraints, EPR prefetching, TP alignment, teleport fusion.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "autocomm/pipeline.hpp"
#include "autocomm/slots.hpp"
#include "circuits/library.hpp"
#include "circuits/qft.hpp"
#include "qir/decompose.hpp"
#include "support/rng.hpp"

namespace {

using namespace autocomm;
using namespace autocomm::pass;
using qir::Circuit;

hw::Machine
machine(int nodes, int per_node)
{
    hw::Machine m;
    m.num_nodes = nodes;
    m.qubits_per_node = per_node;
    return m;
}

CompileResult
run(const Circuit& c, const hw::QubitMapping& map, const hw::Machine& m,
    const ScheduleOptions& sched = {})
{
    CompileOptions opts;
    opts.schedule = sched;
    return compile(c, map, m, opts);
}

TEST(Schedule, EmptyCircuitHasZeroMakespan)
{
    Circuit c(4);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    const auto r = run(c, map, machine(2, 2));
    EXPECT_DOUBLE_EQ(r.schedule.makespan, 0.0);
    EXPECT_EQ(r.schedule.epr_pairs, 0u);
}

TEST(Schedule, LocalCircuitUsesNoEpr)
{
    Circuit c(4);
    c.h(0).cx(0, 1).cx(2, 3).t(2);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    const auto r = run(c, map, machine(2, 2));
    EXPECT_EQ(r.schedule.epr_pairs, 0u);
    // h + cx serial on one node; cx + t in parallel on the other.
    EXPECT_NEAR(r.schedule.makespan, 1.1, 1e-9);
}

TEST(Schedule, SingleRemoteCxCatLatency)
{
    Circuit c(4);
    c.cx(0, 2);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    const auto r = run(c, map, machine(2, 2));
    EXPECT_EQ(r.schedule.epr_pairs, 1u);
    const hw::LatencyModel lat;
    // EPR prep + entangle + CX + disentangle.
    EXPECT_NEAR(r.schedule.makespan,
                lat.t_epr + lat.t_cat_entangle() + lat.t_2q +
                    lat.t_cat_disentangle(),
                1e-9);
}

TEST(Schedule, PrefetchHidesEprBehindComputation)
{
    // Long local preamble on the hub: with prefetch the EPR pair is ready
    // the moment the hub is; without it the EPR prep serializes.
    Circuit c(4);
    for (int i = 0; i < 200; ++i)
        c.t(0);
    c.cx(0, 2);
    const auto map = hw::QubitMapping::contiguous(4, 2);

    ScheduleOptions greedy;
    greedy.epr_prefetch = false;
    const auto slow = run(c, map, machine(2, 2), greedy);
    const auto fast = run(c, map, machine(2, 2));
    const hw::LatencyModel lat;
    EXPECT_NEAR(slow.schedule.makespan - fast.schedule.makespan, lat.t_epr,
                1e-9);
}

TEST(Schedule, IndependentBlocksOverlap)
{
    // Two remote CX between disjoint node pairs: fully parallel.
    Circuit c(8);
    c.cx(0, 2).cx(4, 6);
    const auto map = hw::QubitMapping::contiguous(8, 4);
    const auto r = run(c, map, machine(4, 2));
    Circuit c1(8);
    c1.cx(0, 2);
    const auto r1 = run(c1, map, machine(4, 2));
    EXPECT_NEAR(r.schedule.makespan, r1.schedule.makespan, 1e-9);
}

TEST(Schedule, SharedNodeBlocksRespectTwoCommQubits)
{
    // Three concurrent Cat blocks all targeting node 1: only two comm
    // qubits there, so the third serializes behind an EPR slot.
    Circuit c(8);
    c.cx(0, 3).cx(1, 4).cx(2, 5);
    const auto map =
        hw::QubitMapping(std::vector<NodeId>{0, 2, 3, 1, 1, 1, 1, 1});
    hw::Machine m = machine(4, 5);
    const auto r = run(c, map, m);
    Circuit c2(8);
    c2.cx(0, 3).cx(1, 4);
    const auto r2 = run(c2, map, m);
    EXPECT_GT(r.schedule.makespan, r2.schedule.makespan + 1.0);
}

TEST(Schedule, TpFusionSavesTeleports)
{
    // Hub q0 has two consecutive bidirectional bursts to different nodes:
    // fusion teleports A -> B -> C -> A (3 teleports) instead of
    // A->B->A->C->A (4).
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3); // {0,1},{2,3},{4,5}
    c.cx(0, 2).cx(3, 0); // bidirectional burst to node 1
    c.cx(0, 4).cx(5, 0); // bidirectional burst to node 2
    hw::Machine m = machine(3, 2);

    const auto fused = run(c, map, m);
    ScheduleOptions nofuse;
    nofuse.tp_fusion = false;
    const auto plain = run(c, map, m, nofuse);

    EXPECT_EQ(plain.schedule.teleports, 4u);
    EXPECT_EQ(fused.schedule.teleports, 3u);
    EXPECT_EQ(fused.schedule.fused_links, 1u);
    EXPECT_EQ(plain.schedule.epr_pairs, 4u);
    EXPECT_EQ(fused.schedule.epr_pairs, 3u);
    EXPECT_LT(fused.schedule.makespan, plain.schedule.makespan);
}

TEST(Schedule, FusionBrokenByHubUse)
{
    // A local gate on the hub between the two TP bursts forces the qubit
    // home: no fusion.
    Circuit c(6);
    const auto map = hw::QubitMapping::contiguous(6, 3);
    c.cx(0, 2).cx(3, 0);
    c.cx(1, 0); // hub used at home (local 2q gate, not commuting)
    c.cx(0, 4).cx(5, 0);
    const auto r = run(c, map, machine(3, 2));
    EXPECT_EQ(r.schedule.fused_links, 0u);
    EXPECT_EQ(r.schedule.teleports, 4u);
}

TEST(Schedule, MakespanIsPositiveAndBoundedBelowBySerialComm)
{
    const Circuit c = qir::decompose(circuits::make_qft(12));
    const auto map = hw::QubitMapping::contiguous(12, 3);
    const auto r = run(c, map, machine(3, 4));
    EXPECT_GT(r.schedule.makespan, 0.0);
    EXPECT_GT(r.schedule.epr_pairs, 0u);
    EXPECT_LT(r.schedule.makespan, 1e9);
}

TEST(Schedule, BurstGreedyBeatsPlainGreedyOnQft)
{
    // Fig. 17(c): prefetch + fusion reduce latency.
    const Circuit c = qir::decompose(circuits::make_qft(16));
    const auto map = hw::QubitMapping::contiguous(16, 4);
    hw::Machine m = machine(4, 4);
    const auto burst = run(c, map, m);
    ScheduleOptions plain;
    plain.epr_prefetch = false;
    plain.tp_fusion = false;
    const auto greedy = run(c, map, m, plain);
    EXPECT_LT(burst.schedule.makespan, greedy.schedule.makespan);
}

TEST(Schedule, DeterministicMakespan)
{
    const Circuit c = qir::decompose(circuits::make_qft(10));
    const auto map = hw::QubitMapping::contiguous(10, 2);
    const auto a = run(c, map, machine(2, 5));
    const auto b = run(c, map, machine(2, 5));
    EXPECT_DOUBLE_EQ(a.schedule.makespan, b.schedule.makespan);
    EXPECT_EQ(a.schedule.epr_pairs, b.schedule.epr_pairs);
}

TEST(Schedule, PerfectLinksKeepRawCountsAndFidelityTrivial)
{
    const Circuit c = qir::decompose(circuits::make_qft(12));
    const auto map = hw::QubitMapping::contiguous(12, 3);
    const auto r = run(c, map, machine(3, 4));
    EXPECT_EQ(r.schedule.epr_raw_pairs, r.schedule.hops_total);
    EXPECT_EQ(r.schedule.purify_rounds, 0u);
    EXPECT_DOUBLE_EQ(r.schedule.program_fidelity(), 1.0);
    EXPECT_EQ(r.schedule.ledger.total(), r.schedule.epr_pairs);
    EXPECT_EQ(r.schedule.ledger.raw_total(), r.schedule.epr_raw_pairs);
}

TEST(Schedule, PurificationChargesLatencyRawPairsAndFidelity)
{
    // One remote CX over a 0.9-fidelity link purified to 0.92: exactly
    // one BBPSSW round (0.9 -> 730/788), so the Cat protocol pays one
    // t_purify_round extra and consumes 2 raw pairs for its 1 purified.
    Circuit c(4);
    c.cx(0, 2);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    hw::Machine m = machine(2, 2);
    m.link.fidelity = 0.9;
    m.purify.target_fidelity = 0.92;

    const auto noisy = run(c, map, m);
    const auto clean = run(c, map, machine(2, 2));
    const hw::LatencyModel lat;
    EXPECT_EQ(noisy.schedule.purify_rounds, 1u);
    EXPECT_EQ(noisy.schedule.epr_pairs, 1u);
    EXPECT_EQ(noisy.schedule.epr_raw_pairs, 2u);
    EXPECT_NEAR(noisy.schedule.makespan - clean.schedule.makespan,
                lat.t_purify_round(), 1e-9);
    EXPECT_NEAR(noisy.schedule.program_fidelity(), 730.0 / 788.0, 1e-9);
}

TEST(Schedule, LinkBandwidthContentionDelaysConcurrentPreparations)
{
    // Two concurrent Cat blocks between the same node pair use distinct
    // comm-qubit slots, so with unlimited bandwidth their EPR preps
    // overlap; a bandwidth-1 link serializes the preparations.
    Circuit c(4);
    c.cx(0, 2).cx(1, 3);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    hw::Machine unlimited = machine(2, 2);
    hw::Machine capped = machine(2, 2);
    capped.link.bandwidth = 1;

    const auto fast = run(c, map, unlimited);
    const auto slow = run(c, map, capped);
    EXPECT_EQ(fast.schedule.epr_pairs, 2u);
    EXPECT_EQ(slow.schedule.epr_pairs, 2u);
    const hw::LatencyModel lat;
    EXPECT_NEAR(slow.schedule.makespan - fast.schedule.makespan, lat.t_epr,
                1e-9);

    // Bandwidth 2 restores full overlap.
    hw::Machine two = machine(2, 2);
    two.link.bandwidth = 2;
    EXPECT_DOUBLE_EQ(run(c, map, two).schedule.makespan,
                     fast.schedule.makespan);
}

TEST(Schedule, SwapRoutersOccupyCommQubitsAtIntermediateNodes)
{
    // Star topology: leaf-to-leaf pairs swap through hub node 0, pinning
    // two of its comm qubits for the preparation. Two concurrent
    // leaf-leaf communications therefore serialize at a 2-comm-qubit hub
    // but overlap when the hub has 4 comm qubits.
    Circuit c(8);
    c.cx(2, 4).cx(3, 6);
    const auto map = hw::QubitMapping::contiguous(8, 4);
    hw::Machine narrow = hw::Machine::homogeneous(4, 2,
                                                  hw::Topology::Star);
    hw::Machine wide = narrow;
    wide.comm_qubits_per_node = 4;

    const auto contended = run(c, map, narrow);
    const auto relieved = run(c, map, wide);
    EXPECT_EQ(contended.schedule.epr_pairs, relieved.schedule.epr_pairs);
    EXPECT_GT(contended.schedule.makespan, relieved.schedule.makespan);
}

TEST(Schedule, LedgerAttributesRawPairsToPhysicalLinks)
{
    // A 2-hop pair on a 3-node ring-path generates raw pairs on both
    // physical segments, while the purified pair is booked end-to-end.
    Circuit c(6);
    c.cx(0, 4); // nodes 0 and 2 of the 3-ring: 2 hops via node 1
    const auto map = hw::QubitMapping::contiguous(6, 3);
    hw::Machine m = hw::Machine::homogeneous(3, 2, hw::Topology::Ring);
    // A 3-ring is a triangle (all pairs adjacent); use a degraded direct
    // link to force the 2-hop detour deterministically instead.
    m.link.fidelity = 0.99;
    m.link.set_link_fidelity(0, 2, 0.55);
    m.build_routing();
    ASSERT_EQ(m.hops(0, 2), 2);

    const auto r = run(c, map, m);
    EXPECT_EQ(r.schedule.epr_pairs, 1u);
    EXPECT_EQ(r.schedule.hops_total, 2u);
    EXPECT_EQ(r.schedule.ledger.on_link(0, 2), 1u);
    EXPECT_EQ(r.schedule.ledger.raw_on_link(0, 1), 1u);
    EXPECT_EQ(r.schedule.ledger.raw_on_link(1, 2), 1u);
    EXPECT_EQ(r.schedule.ledger.raw_on_link(0, 2), 0u);
}

/**
 * Reference link pool: a std::map of per-link channel vectors created on
 * first use, with the bandwidth looked up in the model on every call.
 * LinkPool must return the same times for the same call sequence.
 */
class MapLinkPool
{
  public:
    explicit MapLinkPool(const noise::LinkModel& link) : link_(&link) {}

    bool unlimited() const { return link_->unlimited_bandwidth(); }

    double
    earliest_k(NodeId a, NodeId b, int k)
    {
        const int bw = link_->link_bandwidth(a, b);
        if (bw <= 0)
            return 0.0;
        std::vector<double> copy = chans(a, b, bw);
        const auto kth = copy.begin() + (std::min(k, bw) - 1);
        std::nth_element(copy.begin(), kth, copy.end());
        return *kth;
    }

    void
    acquire(NodeId a, NodeId b, int k)
    {
        const int bw = link_->link_bandwidth(a, b);
        if (bw <= 0)
            return;
        std::vector<double>& v = chans(a, b, bw);
        for (int i = 0; i < std::min(k, bw); ++i)
            *std::min_element(v.begin(), v.end()) =
                std::numeric_limits<double>::infinity();
    }

    void
    release(NodeId a, NodeId b, int k, double until)
    {
        const int bw = link_->link_bandwidth(a, b);
        if (bw <= 0)
            return;
        int remaining = std::min(k, bw);
        for (double& t : chans(a, b, bw)) {
            if (remaining == 0)
                break;
            if (t == std::numeric_limits<double>::infinity()) {
                t = until;
                --remaining;
            }
        }
    }

  private:
    std::vector<double>&
    chans(NodeId a, NodeId b, int bw)
    {
        const auto key = std::make_pair(std::min(a, b), std::max(a, b));
        return chans_
            .try_emplace(key, static_cast<std::size_t>(bw), 0.0)
            .first->second;
    }

    const noise::LinkModel* link_;
    std::map<std::pair<NodeId, NodeId>, std::vector<double>> chans_;
};

/** reserve_epr_route written against MapLinkPool, with the router slot
 * ids in a fresh vector per call. */
EprReservation
reference_reserve(SlotPool& slots, MapLinkPool& links,
                  const std::vector<NodeId>& route, int chan,
                  double duration, double t_min)
{
    const NodeId a = route.front();
    const NodeId b = route.back();
    double start = std::max({slots.earliest(a), slots.earliest(b), t_min});
    for (std::size_t i = 1; i + 1 < route.size(); ++i)
        start = std::max(start, slots.earliest_k(route[i], 2));
    if (!links.unlimited())
        for (std::size_t i = 0; i + 1 < route.size(); ++i)
            start = std::max(
                start, links.earliest_k(route[i], route[i + 1], chan));

    EprReservation res;
    auto [sa, ta] = slots.acquire(a, start);
    auto [sb, tb] = slots.acquire(b, start);
    res.slot_a = sa;
    res.slot_b = sb;
    double begin = std::max(ta, tb);
    std::vector<std::pair<NodeId, std::pair<int, int>>> routers;
    for (std::size_t i = 1; i + 1 < route.size(); ++i) {
        const NodeId r = route[i];
        auto [r1, u1] = slots.acquire(r, start);
        auto [r2, u2] = slots.acquire(r, start);
        begin = std::max({begin, u1, u2});
        routers.push_back({r, {r1, r2}});
    }
    for (std::size_t i = 0; i + 1 < route.size(); ++i)
        links.acquire(route[i], route[i + 1], chan);
    res.done = begin + duration;
    for (const auto& [r, ss] : routers) {
        slots.release(r, ss.first, res.done);
        slots.release(r, ss.second, res.done);
    }
    for (std::size_t i = 0; i + 1 < route.size(); ++i)
        links.release(route[i], route[i + 1], chan, res.done);
    return res;
}

TEST(Slots, LinkPoolMatchesMapReference)
{
    // Random earliest_k / acquire / release sequences with several
    // reservations outstanding at once, over uniform bandwidths 1-3 with
    // per-link overrides (0 = an unlimited link among capped ones) and
    // channel demands k in {1, 2, 3, 4, 8}.
    const int kDemands[] = {1, 2, 3, 4, 8};
    for (int bandwidth = 1; bandwidth <= 3; ++bandwidth) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            const int n = 6;
            noise::LinkModel link;
            link.bandwidth = bandwidth;
            link.set_link_bandwidth(0, 1, 0);
            link.set_link_bandwidth(2, 3, 4);
            link.set_link_bandwidth(4, 5, 1);
            LinkPool pool(link, n);
            MapLinkPool ref(link);
            ASSERT_EQ(pool.unlimited(), ref.unlimited());

            support::Rng rng(seed * 31 + static_cast<std::uint64_t>(
                                             bandwidth));
            struct Held
            {
                NodeId a, b;
                int k;
            };
            std::vector<Held> held;
            double clock = 0.0;
            for (int step = 0; step < 2000; ++step) {
                const NodeId a = static_cast<NodeId>(rng.next_below(n));
                NodeId b = static_cast<NodeId>(rng.next_below(n - 1));
                if (b >= a)
                    ++b;
                const int k = kDemands[rng.next_below(5)];
                switch (rng.next_below(3)) {
                  case 0:
                    ASSERT_EQ(pool.earliest_k(a, b, k),
                              ref.earliest_k(a, b, k))
                        << "bandwidth " << bandwidth << " seed " << seed
                        << " step " << step;
                    break;
                  case 1:
                    pool.acquire(a, b, k);
                    ref.acquire(a, b, k);
                    held.push_back({a, b, k});
                    break;
                  default:
                    if (held.empty())
                        break;
                    const auto i = static_cast<std::size_t>(
                        rng.next_below(held.size()));
                    clock += static_cast<double>(rng.next_below(4));
                    pool.release(held[i].a, held[i].b, held[i].k, clock);
                    ref.release(held[i].a, held[i].b, held[i].k, clock);
                    held.erase(held.begin() +
                               static_cast<std::ptrdiff_t>(i));
                    break;
                }
            }
            for (NodeId a = 0; a < n; ++a) {
                for (NodeId b = 0; b < n; ++b) {
                    if (a == b)
                        continue;
                    for (const int k : kDemands)
                        EXPECT_EQ(pool.earliest_k(a, b, k),
                                  ref.earliest_k(a, b, k));
                }
            }
        }
    }
}

/** Run the same reservations on @p route through reserve_epr_route and
 * the reference, releasing each pair's endpoints a fixed time after it
 * is ready, and require identical slots and completion times. */
void
expect_reservations_match(const hw::Machine& m,
                          const std::vector<NodeId>& route, int chan)
{
    ASSERT_GE(route.size(), 3u) << "not a multi-hop route";
    SlotPool slots(m.num_nodes, m.comm_qubits_per_node);
    SlotPool ref_slots(m.num_nodes, m.comm_qubits_per_node);
    LinkPool links(m.link, m.num_nodes);
    MapLinkPool ref_links(m.link);
    for (int i = 0; i < 20; ++i) {
        // Alternate the full route with its first hop, so reservations
        // contend on the shared link and router.
        const std::vector<NodeId> r =
            i % 2 == 0 ? route
                       : std::vector<NodeId>{route[0], route[1]};
        const double t_min = static_cast<double>(i % 3);
        const EprReservation got =
            reserve_epr_route(slots, links, r, chan, 5.0, t_min);
        const EprReservation want =
            reference_reserve(ref_slots, ref_links, r, chan, 5.0, t_min);
        ASSERT_EQ(got.slot_a, want.slot_a) << "reservation " << i;
        ASSERT_EQ(got.slot_b, want.slot_b) << "reservation " << i;
        ASSERT_EQ(got.done, want.done) << "reservation " << i;
        const double until = got.done + 1.0;
        slots.release(r.front(), got.slot_a, until);
        slots.release(r.back(), got.slot_b, until);
        ref_slots.release(r.front(), want.slot_a, until);
        ref_slots.release(r.back(), want.slot_b, until);
    }
    for (NodeId v = 0; v < m.num_nodes; ++v)
        EXPECT_EQ(slots.earliest_k(v, 2), ref_slots.earliest_k(v, 2));
}

TEST(Slots, ReserveMultiHopRingRouteMatchesReference)
{
    hw::Machine m = hw::Machine::homogeneous(8, 4, hw::Topology::Ring);
    m.comm_qubits_per_node = 3;
    m.link.bandwidth = 2;
    const std::vector<NodeId> route = m.path(0, 3);
    ASSERT_EQ(route.size(), 4u);
    for (const int chan : {1, 2, 4})
        expect_reservations_match(m, route, chan);
}

TEST(Slots, ReserveOnLargeRingMatchesReference)
{
    // High node ids and the wrap-around link (n - 1, 0) index the far
    // end of the pool's link table.
    const int n = 300;
    hw::Machine m = hw::Machine::homogeneous(n, 2, hw::Topology::Ring);
    m.comm_qubits_per_node = 4;
    m.link.bandwidth = 2;
    m.link.set_link_bandwidth(n - 3, n - 2, 1);
    const std::vector<NodeId> route = m.path(n - 3, 0);
    ASSERT_EQ(route.size(), 4u);
    for (const int chan : {1, 2})
        expect_reservations_match(m, route, chan);
}

TEST(Slots, PlanCacheOnLargeRingMatchesDirectPlans)
{
    // 300 nodes: past any small-machine special case. The pairs cover
    // both ends of the pair table and the wrap-around link (n - 1, 0).
    const int n = 300;
    hw::Machine m = hw::Machine::homogeneous(n, 2, hw::Topology::Ring);
    m.link.fidelity = 0.999;
    m.link.set_link_fidelity(n - 1, 0, 0.95);
    m.purify.target_fidelity = 0.99;
    m.build_routing();

    EprPlanCache cache(m);
    const EprPairPlan& first = cache.plan(1, 0);
    const std::vector<std::pair<NodeId, NodeId>> pairs = {
        {0, 1},         {1, 0},         {n - 1, 0},  {0, n - 1},
        {n - 2, n - 1}, {n - 1, n - 3}, {0, n / 2},  {n - 2, 2},
        {n / 2, 1},     {n - 1, n - 2}};
    for (const auto& [a, b] : pairs) {
        const EprPairPlan& got = cache.plan(a, b);
        const NodeId lo = std::min(a, b);
        const NodeId hi = std::max(a, b);
        const int rounds = m.purification_rounds(lo, hi);
        EXPECT_EQ(got.route, m.path(lo, hi)) << a << "-" << b;
        EXPECT_EQ(got.hops, m.hops(lo, hi)) << a << "-" << b;
        EXPECT_EQ(got.rounds, rounds) << a << "-" << b;
        EXPECT_EQ(got.raw,
                  noise::PurificationPolicy::cost_multiplier(rounds))
            << a << "-" << b;
        EXPECT_EQ(got.duration, m.epr_latency(lo, hi)) << a << "-" << b;
        EXPECT_EQ(got.fidelity, m.purified_pair_fidelity(lo, hi))
            << a << "-" << b;
        // Both directions share one memoized plan.
        EXPECT_EQ(&got, &cache.plan(b, a)) << a << "-" << b;
    }
    EXPECT_GT(cache.plan(0, n / 2).hops, 100);
    EXPECT_GT(cache.plan(n - 1, 0).rounds, cache.plan(0, 1).rounds);
    // A reference from the first request survives every later build.
    EXPECT_EQ(&first, &cache.plan(0, 1));
    EXPECT_EQ(first.route, m.path(0, 1));
}

} // namespace
