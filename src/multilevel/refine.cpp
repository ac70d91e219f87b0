#include "multilevel/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/decision.hpp"
#include "support/log.hpp"

namespace autocomm::multilevel {

namespace {

/** Strictly-positive gain threshold: guards the never-worse guarantee
 * against floating-point dust. */
constexpr double kGainEps = 1e-12;

/** Gain of moving @p v from its part to @p target under @p part. */
double
move_gain(const partition::InteractionGraph& g,
          const std::vector<NodeId>& part, const CostModel& cost,
          QubitId v, NodeId target)
{
    const NodeId pv = part[static_cast<std::size_t>(v)];
    double gain = 0.0;
    for (const auto& [u, w] : g.neighbors(v)) {
        const NodeId pu = part[static_cast<std::size_t>(u)];
        const double before = pu == pv ? 0.0 : cost.cost(pv, pu);
        const double after = pu == target ? 0.0 : cost.cost(target, pu);
        gain += static_cast<double>(w) * (before - after);
    }
    return gain;
}

/**
 * One candidate: a single-vertex move (partner == kInvalidId; vertex ->
 * target) or a pairwise exchange (vertex <-> partner; target unused).
 * Swaps are what make refinement effective on this codebase's machines:
 * the default shape packs every node to exactly ceil(n/k) qubits, so a
 * lone move is always capacity-blocked while an exchange never is.
 */
struct Move
{
    QubitId vertex = kInvalidId;
    NodeId target = kInvalidId;
    QubitId partner = kInvalidId;
    double gain = 0.0;
};

/**
 * Gain of exchanging @p u and @p v (in different parts) under @p part:
 * the two move gains, minus the double-credited direct edge — after the
 * swap the (u, v) edge is still cut at the same pair cost, but each
 * one-sided move gain counted it as healed.
 */
double
swap_gain(const partition::InteractionGraph& g,
          const std::vector<NodeId>& part, const CostModel& cost,
          QubitId u, QubitId v)
{
    const NodeId pu = part[static_cast<std::size_t>(u)];
    const NodeId pv = part[static_cast<std::size_t>(v)];
    return move_gain(g, part, cost, u, pv) +
           move_gain(g, part, cost, v, pu) -
           2.0 * static_cast<double>(g.weight(u, v)) * cost.cost(pu, pv);
}

/** Total order on candidates, so the applied sequence does not depend
 * on the order they were scored in. */
bool
move_order(const Move& a, const Move& b)
{
    if (a.gain != b.gain)
        return a.gain > b.gain;
    if (a.vertex != b.vertex)
        return a.vertex < b.vertex;
    if (a.partner != b.partner)
        return a.partner < b.partner;
    return a.target < b.target;
}

} // namespace

RefineStats
refine(const partition::InteractionGraph& g,
       const std::vector<int>& vertex_weight,
       const std::vector<int>& capacities, const CostModel& cost,
       std::vector<NodeId>& part)
{
    const int n = g.num_qubits();
    const int k = static_cast<int>(capacities.size());
    RefineStats stats;
    if (n == 0 || k <= 1)
        return stats;

    std::vector<long> load(static_cast<std::size_t>(k), 0);
    for (int v = 0; v < n; ++v)
        load[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
            vertex_weight[static_cast<std::size_t>(v)];

    constexpr int kMaxRounds = 8; // move rounds per level
    for (int round = 0; round < kMaxRounds; ++round) {
        // Boundary vertices per part. Every candidate is scored against
        // the partition as the round found it: nothing commits until
        // all are scored.
        std::vector<std::vector<QubitId>> boundary(
            static_cast<std::size_t>(k));
        for (QubitId v = 0; v < n; ++v) {
            const NodeId pv = part[static_cast<std::size_t>(v)];
            for (const auto& [u, w] : g.neighbors(v)) {
                (void)w;
                if (part[static_cast<std::size_t>(u)] != pv) {
                    boundary[static_cast<std::size_t>(pv)].push_back(v);
                    break;
                }
            }
        }
        if (std::all_of(boundary.begin(), boundary.end(),
                        [](const auto& b) { return b.empty(); }))
            break; // no cut edge: nothing to score

        // Node pairs: the (p, q) step scores p->q and q->p moves plus
        // p<->q exchanges over the two boundary lists. A vertex can be
        // profitable toward q without any direct q-neighbor (q may
        // simply sit closer, in hop space, to the vertex's other
        // neighbors), so every boundary vertex of the pair is scored,
        // not just the pair-crossing ones.
        std::vector<Move> candidates;
        for (NodeId p = 0; p < k; ++p)
            for (NodeId q = p + 1; q < k; ++q) {
                const std::vector<QubitId>& bp =
                    boundary[static_cast<std::size_t>(p)];
                const std::vector<QubitId>& bq =
                    boundary[static_cast<std::size_t>(q)];
                const double cpq = cost.cost(p, q);

                std::vector<double> gain_pq(bp.size());
                for (std::size_t ui = 0; ui < bp.size(); ++ui) {
                    gain_pq[ui] = move_gain(g, part, cost, bp[ui], q);
                    if (gain_pq[ui] > kGainEps)
                        candidates.push_back(
                            {bp[ui], q, kInvalidId, gain_pq[ui]});
                }
                std::vector<double> gain_qp(bq.size());
                for (std::size_t vi = 0; vi < bq.size(); ++vi) {
                    gain_qp[vi] = move_gain(g, part, cost, bq[vi], p);
                    if (gain_qp[vi] > kGainEps)
                        candidates.push_back(
                            {bq[vi], p, kInvalidId, gain_qp[vi]});
                }
                // Exchanges: both one-sided gains are already in hand,
                // so a swap costs only the direct-edge correction.
                for (std::size_t ui = 0; ui < bp.size(); ++ui)
                    for (std::size_t vi = 0; vi < bq.size(); ++vi) {
                        const double sg =
                            gain_pq[ui] + gain_qp[vi] -
                            2.0 *
                                static_cast<double>(
                                    g.weight(bp[ui], bq[vi])) *
                                cpq;
                        if (sg > kGainEps)
                            candidates.push_back({bp[ui], q, bq[vi], sg});
                    }
            }
        std::sort(candidates.begin(), candidates.end(), move_order);

        // Application. Earlier commits invalidate later scored gains,
        // so each gain is recomputed against the live partition; only
        // still-profitable, still-fitting candidates commit — the
        // weighted cut strictly decreases with every commit, which is
        // the never-worse guarantee the property tests pin.
        // Decision per candidate: verdict names the outcome (apply, or
        // the reject cause). The candidate order is a total order, so
        // these counts are deterministic.
        const auto note_fm = [round](const char* verdict,
                                     const Move& m) {
            obs::decision("multilevel.fm", verdict,
                          obs::arg("vertex", m.vertex),
                          obs::arg("target", m.target),
                          obs::arg("partner", m.partner),
                          obs::arg("gain", m.gain),
                          obs::arg("round", round));
        };
        std::size_t applied = 0;
        for (const Move& m : candidates) {
            const std::size_t v = static_cast<std::size_t>(m.vertex);
            const int wv = vertex_weight[v];
            if (m.partner == kInvalidId) {
                const NodeId from = part[v];
                if (from == m.target) {
                    note_fm("same-part", m);
                    continue;
                }
                if (load[static_cast<std::size_t>(m.target)] + wv >
                    capacities[static_cast<std::size_t>(m.target)]) {
                    note_fm("capacity", m);
                    continue;
                }
                if (move_gain(g, part, cost, m.vertex, m.target) <=
                    kGainEps) {
                    note_fm("stale", m);
                    continue;
                }
                part[v] = m.target;
                load[static_cast<std::size_t>(from)] -= wv;
                load[static_cast<std::size_t>(m.target)] += wv;
            } else {
                const std::size_t u = static_cast<std::size_t>(m.partner);
                const NodeId pv = part[v];
                const NodeId pu = part[u];
                if (pv == pu) {
                    note_fm("same-part", m);
                    continue;
                }
                const int wu = vertex_weight[u];
                if (load[static_cast<std::size_t>(pv)] - wv + wu >
                        capacities[static_cast<std::size_t>(pv)] ||
                    load[static_cast<std::size_t>(pu)] - wu + wv >
                        capacities[static_cast<std::size_t>(pu)]) {
                    note_fm("capacity", m);
                    continue;
                }
                if (swap_gain(g, part, cost, m.vertex, m.partner) <=
                    kGainEps) {
                    note_fm("stale", m);
                    continue;
                }
                part[v] = pu;
                part[u] = pv;
                load[static_cast<std::size_t>(pv)] += wu - wv;
                load[static_cast<std::size_t>(pu)] += wv - wu;
            }
            note_fm("apply", m);
            ++applied;
        }
        ++stats.rounds;
        stats.moves += applied;
        if (applied == 0)
            break;
    }
    return stats;
}

std::size_t
rebalance(const partition::InteractionGraph& g,
          const std::vector<int>& vertex_weight,
          const std::vector<int>& capacities, const CostModel& cost,
          std::vector<NodeId>& part)
{
    const int n = g.num_qubits();
    const int k = static_cast<int>(capacities.size());
    std::vector<long> load(static_cast<std::size_t>(k), 0);
    for (int v = 0; v < n; ++v)
        load[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
            vertex_weight[static_cast<std::size_t>(v)];

    std::size_t moved = 0;
    for (;;) {
        // Most-overloaded node first (ties to the smaller id).
        NodeId over = kInvalidId;
        long worst = 0;
        for (NodeId p = 0; p < k; ++p) {
            const long excess = load[static_cast<std::size_t>(p)] -
                                capacities[static_cast<std::size_t>(p)];
            if (excess > worst) {
                worst = excess;
                over = p;
            }
        }
        if (over == kInvalidId)
            return moved; // feasible

        // Cheapest (max-gain) eviction from `over` into any node with
        // room. Ties: smaller vertex, then smaller target.
        Move pick;
        bool found = false;
        for (QubitId v = 0; v < n; ++v) {
            if (part[static_cast<std::size_t>(v)] != over)
                continue;
            const int wv = vertex_weight[static_cast<std::size_t>(v)];
            for (NodeId q = 0; q < k; ++q) {
                if (q == over ||
                    load[static_cast<std::size_t>(q)] + wv >
                        capacities[static_cast<std::size_t>(q)])
                    continue;
                const double gain = move_gain(g, part, cost, v, q);
                if (!found || gain > pick.gain ||
                    (gain == pick.gain &&
                     (v < pick.vertex ||
                      (v == pick.vertex && q < pick.target)))) {
                    pick = {v, q, kInvalidId, gain};
                    found = true;
                }
            }
        }
        if (!found) {
            // Every resident vertex outweighs every other node's slack:
            // only possible above level 0 (unit weights always fit a
            // 1-slack node). The caller retries on a finer level.
            obs::decision("multilevel.rebalance", "stuck",
                          obs::arg("over", over),
                          obs::arg("excess", worst),
                          obs::arg("moved", moved));
            return moved;
        }
        obs::decision("multilevel.rebalance", "evict",
                      obs::arg("vertex", pick.vertex),
                      obs::arg("from", over),
                      obs::arg("target", pick.target),
                      obs::arg("gain", pick.gain),
                      obs::arg("excess", worst));
        const int wv =
            vertex_weight[static_cast<std::size_t>(pick.vertex)];
        part[static_cast<std::size_t>(pick.vertex)] = pick.target;
        load[static_cast<std::size_t>(over)] -= wv;
        load[static_cast<std::size_t>(pick.target)] += wv;
        ++moved;
    }
}

} // namespace autocomm::multilevel
