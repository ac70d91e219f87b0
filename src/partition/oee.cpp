#include "partition/oee.hpp"

#include <algorithm>
#include <limits>

#include "partition/mappers.hpp"
#include "support/log.hpp"

namespace autocomm::partition {

namespace {

/**
 * Incrementally maintained connectivity table: conn[q][p] = total edge
 * weight between qubit q and partition p. Makes per-swap updates O(deg);
 * the exchange scan in oee_refine makes each pairwise gain O(1) on top.
 */
class ConnTable
{
  public:
    ConnTable(const InteractionGraph& g, const std::vector<NodeId>& part,
              int num_parts)
        : g_(g), parts_(num_parts),
          conn_(static_cast<std::size_t>(g.num_qubits()) *
                    static_cast<std::size_t>(num_parts),
                0)
    {
        for (QubitId q = 0; q < g.num_qubits(); ++q)
            for (const auto& [v, w] : g.neighbors(q))
                at(q, part[static_cast<std::size_t>(v)]) += w;
    }

    long& at(QubitId q, NodeId p)
    {
        return conn_[static_cast<std::size_t>(q) *
                         static_cast<std::size_t>(parts_) +
                     static_cast<std::size_t>(p)];
    }

    /** Record that qubit @p q moved from partition @p from to @p to. */
    void
    moved(QubitId q, NodeId from, NodeId to)
    {
        for (const auto& [v, w] : g_.neighbors(q)) {
            at(v, from) -= w;
            at(v, to) += w;
        }
    }

  private:
    const InteractionGraph& g_;
    int parts_;
    std::vector<long> conn_;
};

/**
 * The KL-style exchange loop shared by the homogeneous and
 * capacity-aware entry points. Exchanges swap two qubits' partitions, so
 * whatever per-node loads @p part starts with are invariant.
 */
std::vector<NodeId>
oee_refine(const InteractionGraph& g, std::vector<NodeId> part,
           int num_nodes, const OeeOptions& opts);

} // namespace

std::vector<NodeId>
oee_partition(const InteractionGraph& g, int num_nodes,
              const OeeOptions& opts)
{
    const int n = g.num_qubits();
    if (num_nodes <= 0)
        support::fatal("oee_partition: num_nodes must be positive");
    const int per = (n + num_nodes - 1) / num_nodes;

    std::vector<NodeId> part(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        part[static_cast<std::size_t>(q)] = q / per;
    return oee_refine(g, std::move(part), num_nodes, opts);
}

std::vector<NodeId>
oee_partition(const InteractionGraph& g, const std::vector<int>& capacities,
              const OeeOptions& opts)
{
    return oee_refine(g, capacity_fill(g.num_qubits(), capacities),
                      static_cast<int>(capacities.size()), opts);
}

std::vector<NodeId>
oee_polish(const InteractionGraph& g, std::vector<NodeId> initial,
           int num_nodes, const OeeOptions& opts)
{
    return oee_refine(g, std::move(initial), num_nodes, opts);
}

namespace {

std::vector<NodeId>
oee_refine(const InteractionGraph& g, std::vector<NodeId> part,
           int num_nodes, const OeeOptions& opts)
{
    const int n = g.num_qubits();
    if (num_nodes == 1 || n <= 1)
        return part;

    // KL locks every vertex once per pass in the classic formulation; for
    // large registers the tail of a pass is rarely profitable, so cap the
    // exchange sequence length (quality is unaffected in practice because
    // the roll-back keeps only the best prefix anyway).
    const int per_pass =
        opts.max_exchanges_per_pass > 0
            ? opts.max_exchanges_per_pass
            : std::min(std::max(1, n / 2), 64);

    // Scratch for the exchange scan: each qubit's edge weight into its
    // own part, and the current `a`'s edge weights by neighbor (all zero
    // between uses).
    std::vector<long> internal(static_cast<std::size_t>(n));
    std::vector<long> weight_to_a(static_cast<std::size_t>(n), 0);

    for (int pass = 0; pass < opts.max_passes; ++pass) {
        std::vector<NodeId> work = part;
        ConnTable conn(g, work, num_nodes);
        std::vector<char> locked(static_cast<std::size_t>(n), 0);
        std::vector<std::pair<QubitId, QubitId>> sequence;
        std::vector<long> cumulative;
        long running = 0;

        for (int step = 0; step < per_pass; ++step) {
            // The gain of swapping a and b (cut decrease) is
            //   conn(a, pb) - conn(a, pa) + conn(b, pa) - conn(b, pb)
            //   - 2 w(a, b):
            // the direct a-b edge stays cut after the swap and appears in
            // both D terms. Each qubit's own-part term is fixed for the
            // step, and a's edge weights are scattered into a dense row,
            // so every candidate pair costs O(1).
            for (QubitId q = 0; q < n; ++q)
                internal[static_cast<std::size_t>(q)] =
                    conn.at(q, work[static_cast<std::size_t>(q)]);
            long best_gain = std::numeric_limits<long>::min();
            QubitId best_a = kInvalidId, best_b = kInvalidId;
            for (QubitId a = 0; a < n; ++a) {
                if (locked[static_cast<std::size_t>(a)])
                    continue;
                const NodeId pa = work[static_cast<std::size_t>(a)];
                const long a_internal = internal[static_cast<std::size_t>(a)];
                for (const auto& [v, w] : g.neighbors(a))
                    weight_to_a[static_cast<std::size_t>(v)] = w;
                for (QubitId b = a + 1; b < n; ++b) {
                    if (locked[static_cast<std::size_t>(b)])
                        continue;
                    const NodeId pb = work[static_cast<std::size_t>(b)];
                    if (pa == pb)
                        continue;
                    const long gain =
                        conn.at(a, pb) - a_internal + conn.at(b, pa) -
                        internal[static_cast<std::size_t>(b)] -
                        2 * weight_to_a[static_cast<std::size_t>(b)];
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_a = a;
                        best_b = b;
                    }
                }
                for (const auto& edge : g.neighbors(a))
                    weight_to_a[static_cast<std::size_t>(edge.first)] = 0;
            }
            if (best_a == kInvalidId)
                break; // nothing left to exchange
            const NodeId pa = work[static_cast<std::size_t>(best_a)];
            const NodeId pb = work[static_cast<std::size_t>(best_b)];
            work[static_cast<std::size_t>(best_a)] = pb;
            work[static_cast<std::size_t>(best_b)] = pa;
            conn.moved(best_a, pa, pb);
            conn.moved(best_b, pb, pa);
            locked[static_cast<std::size_t>(best_a)] = 1;
            locked[static_cast<std::size_t>(best_b)] = 1;
            running += best_gain;
            sequence.emplace_back(best_a, best_b);
            cumulative.push_back(running);
        }

        // Roll back to the best (strictly improving) prefix.
        long best_total = 0;
        std::size_t best_len = 0;
        for (std::size_t i = 0; i < cumulative.size(); ++i) {
            if (cumulative[i] > best_total) {
                best_total = cumulative[i];
                best_len = i + 1;
            }
        }
        if (best_len == 0)
            break; // pass produced no improvement: converged
        for (std::size_t i = 0; i < best_len; ++i)
            std::swap(part[static_cast<std::size_t>(sequence[i].first)],
                      part[static_cast<std::size_t>(sequence[i].second)]);
    }
    return part;
}

} // namespace

hw::QubitMapping
oee_map(const qir::Circuit& c, int num_nodes, const OeeOptions& opts)
{
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    return hw::QubitMapping(oee_partition(g, num_nodes, opts));
}

hw::QubitMapping
oee_map(const qir::Circuit& c, const hw::Machine& m, const OeeOptions& opts)
{
    const InteractionGraph g = InteractionGraph::from_circuit(c);
    return hw::QubitMapping(oee_partition(g, m.capacities(), opts));
}

hw::QubitMapping
oee_map(const InteractionGraph& g, const hw::Machine& m,
        const OeeOptions& opts)
{
    return hw::QubitMapping(oee_partition(g, m.capacities(), opts));
}

} // namespace autocomm::partition
