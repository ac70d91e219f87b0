/**
 * @file
 * Tests for the structured decision-event API (src/obs/decision):
 *
 *  - disabled mode is a true no-op — no events, no counters, and zero
 *    heap allocations (pinned with a counting global operator new);
 *  - explain_json() parses back with the cache's own JSON parser and
 *    carries the documented schema (totals / cells / global buckets,
 *    bounded newest-first payload samples);
 *  - flight-recorder ring rotation keeps the newest decision payloads
 *    while the per-verdict counts stay exact (counter-backed);
 *  - per-cell decision counts are identical at any sweep thread count,
 *    for every category, and so are the global aggregation counts
 *    (aggregation runs once per shared group, outside any cell scope);
 *  - one pinned-payload test per instrumented layer: aggregation
 *    (burst accept), scheduler (scheme choice + purification rounds),
 *    multilevel (FM apply with its gain), routing (max-fidelity vs BFS
 *    detour with both route strings).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "autocomm/pipeline.hpp"
#include "autocomm/slots.hpp"
#include "cache/json.hpp"
#include "circuits/library.hpp"
#include "driver/sweep.hpp"
#include "hw/machine.hpp"
#include "multilevel/cost.hpp"
#include "multilevel/refine.hpp"
#include "obs/decision.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/interaction_graph.hpp"
#include "qir/circuit.hpp"

// Counting global allocator: proves the disabled decision path never
// touches the heap. Safe here because CMake builds one binary per test
// file, so no other test sees this override. GCC cannot see that the
// replaced new/delete below are a matched malloc/free pair once they
// inline into callers, so silence its mismatch heuristic for this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::size_t> g_allocs{0};
} // namespace

void*
operator new(std::size_t n)
{
    ++g_allocs;
    if (void* p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms (std::stable_sort's temporary buffer) must come from
// malloc too, or the replaced deletes below free a sanitizer allocation.
void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    ++g_allocs;
    return std::malloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return ::operator new(n, std::nothrow);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace autocomm;
using cache::Json;

/** Wipe all recorded obs state and set the enabled flag (see
 * test_obs.cpp — tests share one process-wide registry/buffer). */
void
reset_obs(bool enable)
{
    obs::set_enabled(enable);
    obs::set_ring_capacity(0);
    obs::reset();
    obs::Registry::instance().reset();
}

/** Parse @p text with the cache's JSON parser, failing the test on a
 * parse error. */
Json
parse_json(const std::string& text)
{
    std::string error;
    std::optional<Json> doc = Json::parse(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc.has_value() ? *doc : Json::object();
}

// ------------------------------------------------------------- disabled

TEST(DecisionDisabled, RecordsNothingAndAllocatesNothing)
{
    reset_obs(false);
    const std::size_t before = g_allocs.load();
    for (int i = 0; i < 10'000; ++i)
        obs::decision("noop.cat", "skip", obs::arg("i", i),
                      obs::arg("x", 1.5));
    const std::size_t after = g_allocs.load();
    EXPECT_EQ(after, before);
    EXPECT_TRUE(obs::collect_events().empty());
    EXPECT_EQ(obs::Registry::instance().find_counter(
                  "decision.noop.cat.skip"),
              nullptr);
}

// ------------------------------------------------------ explain schema

TEST(DecisionExplain, JsonParsesBackWithTotalsCellsAndSamples)
{
    reset_obs(true);
    obs::decision("test.cat", "yes", obs::arg("n", 7),
                  obs::arg("x", 0.5), obs::arg("s", "hello"));
    {
        obs::CellScope cell("cell-A");
        obs::decision("test.cat", "no", obs::arg("n", 1));
        obs::decision("test.cat", "no", obs::arg("n", 2));
    }
    obs::set_enabled(false);

    const Json doc = parse_json(obs::explain_json(/*top_n=*/1));
    EXPECT_EQ(doc.at("decisions").to_uint(), 3u);

    const Json& totals = doc.at("totals").at("test.cat");
    EXPECT_EQ(totals.at("yes").to_uint(), 1u);
    EXPECT_EQ(totals.at("no").to_uint(), 2u);

    // The scoped bucket: both "no" decisions, one (the newest) sampled.
    const Json& cell =
        doc.at("cells").at("cell-A").at("test.cat").at("no");
    EXPECT_EQ(cell.at("count").to_uint(), 2u);
    ASSERT_EQ(cell.at("samples").items().size(), 1u);
    const Json& newest = cell.at("samples").items()[0];
    EXPECT_EQ(newest.at("verdict").to_string(), "no");
    EXPECT_EQ(newest.at("n").to_int(), 2);
    EXPECT_GE(newest.at("t_ms").to_double(), 0.0);

    // The unscoped remainder lands in "global" with its typed payload.
    const Json& global = doc.at("global").at("test.cat").at("yes");
    EXPECT_EQ(global.at("count").to_uint(), 1u);
    ASSERT_EQ(global.at("samples").items().size(), 1u);
    const Json& sample = global.at("samples").items()[0];
    EXPECT_EQ(sample.at("n").to_int(), 7);
    EXPECT_DOUBLE_EQ(sample.at("x").to_double(), 0.5);
    EXPECT_EQ(sample.at("s").to_string(), "hello");
}

// ----------------------------------------------------------- ring mode

TEST(DecisionRing, RotationKeepsNewestPayloadsAndExactCounts)
{
    reset_obs(true);
    obs::set_ring_capacity(8);
    for (int i = 0; i < 100; ++i)
        obs::decision("ring.cat", "spin", obs::arg("i", i));
    obs::set_enabled(false);

    // Counts come from counters, so rotation never loses them.
    const obs::Counter* c =
        obs::Registry::instance().find_counter("decision.ring.cat.spin");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 100u);
    EXPECT_LE(obs::collect_events().size(), 8u);

    // The sampled payloads are the newest events, newest last.
    const Json doc = parse_json(obs::explain_json(/*top_n=*/3));
    const Json& bucket = doc.at("global").at("ring.cat").at("spin");
    EXPECT_EQ(bucket.at("count").to_uint(), 100u);
    const std::vector<Json>& samples = bucket.at("samples").items();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].at("i").to_int(), 97);
    EXPECT_EQ(samples[1].at("i").to_int(), 98);
    EXPECT_EQ(samples[2].at("i").to_int(), 99);

    obs::set_ring_capacity(0);
}

// -------------------------------------------------- layer: aggregation

TEST(DecisionLayers, AggregationBurstAcceptCarriesMemberCounts)
{
    reset_obs(true);
    // Two CX sharing hub qubit 0 against node 1: one burst of 2 members.
    qir::Circuit c(4);
    c.cx(0, 2);
    c.cx(0, 3);
    const auto map = hw::QubitMapping::contiguous(4, 2);
    const hw::Machine m = hw::Machine::homogeneous(2, 2);
    (void)pass::compile(c, map, m);
    obs::set_enabled(false);

    const Json doc = parse_json(obs::explain_json());
    const Json& accept =
        doc.at("global").at("aggregate.burst").at("accept");
    EXPECT_GE(accept.at("count").to_uint(), 1u);
    bool found_pair = false;
    for (const Json& s : accept.at("samples").items())
        if (s.at("members").to_int() == 2) {
            found_pair = true;
            EXPECT_EQ(s.at("hub").to_int(), 0);
            EXPECT_EQ(s.at("rnode").to_int(), 1);
        }
    EXPECT_TRUE(found_pair);
}

// ---------------------------------------------------- layer: scheduler

TEST(DecisionLayers, SchedulerSchemeAndPurifyPayloads)
{
    // Noisy 3-ring with one degraded fiber: every pair purifies, and
    // the plan cache notes the rounds it chose against the target.
    hw::Machine m = hw::Machine::homogeneous(3, 2, hw::Topology::Ring);
    m.link.fidelity = 0.99;
    m.link.set_link_fidelity(0, 2, 0.55);
    m.purify.target_fidelity = 0.99;
    m.build_routing();
    ASSERT_EQ(m.hops(0, 2), 2);

    reset_obs(true);
    qir::Circuit c(6);
    c.cx(0, 4); // nodes 0 and 2: the 2-hop pair
    const auto map = hw::QubitMapping::contiguous(6, 3);
    (void)pass::compile(c, map, m);
    obs::set_enabled(false);

    const Json doc = parse_json(obs::explain_json());

    // Scheme choice: the lone remote gate is a single-member Cat block.
    const Json& cat = doc.at("global").at("schedule.scheme").at("cat");
    EXPECT_EQ(cat.at("count").to_uint(), 1u);
    const Json& scheme = cat.at("samples").items().at(0);
    EXPECT_EQ(scheme.at("pattern").to_string(), "single");
    EXPECT_EQ(scheme.at("members").to_int(), 1);
    EXPECT_EQ(scheme.at("cat_cost").to_int(), 1);
    EXPECT_EQ(scheme.at("tp_cost").to_int(), 2);

    // Purification: the 2-hop plan needs rounds to reach the target.
    const Json& purified =
        doc.at("global").at("schedule.purify").at("purified");
    EXPECT_GE(purified.at("count").to_uint(), 1u);
    bool found_pair = false;
    for (const Json& s : purified.at("samples").items())
        if (s.at("a").to_int() == 0 && s.at("b").to_int() == 2) {
            found_pair = true;
            EXPECT_EQ(s.at("hops").to_int(), 2);
            EXPECT_GE(s.at("rounds").to_int(), 1);
            EXPECT_DOUBLE_EQ(s.at("target").to_double(), 0.99);
            EXPECT_GE(s.at("fidelity").to_double(), 0.99);
        }
    EXPECT_TRUE(found_pair);

    // The GP-TP baseline shares the plan math through its own cache but
    // must not note decisions — the count is the scheduler's alone.
    const obs::Counter* raw = obs::Registry::instance().find_counter(
        "decision.schedule.purify.purified");
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(raw->value(), purified.at("count").to_uint());
}

// ---------------------------------------------------- layer: multilevel

TEST(DecisionLayers, MultilevelFmApplyCarriesGain)
{
    reset_obs(true);
    // Two natural clusters {0,1} and {2,3} start interleaved: FM must
    // commit at least one profitable move or swap to fix the cut.
    partition::InteractionGraph g(4);
    g.add_edge(0, 1, 5);
    g.add_edge(2, 3, 5);
    g.add_edge(1, 2, 1);
    std::vector<NodeId> part = {0, 1, 0, 1};
    const std::vector<int> vw = {1, 1, 1, 1};
    const std::vector<int> caps = {2, 2};
    const multilevel::CostModel cost = multilevel::CostModel::flat(2);
    const multilevel::RefineStats stats =
        multilevel::refine(g, vw, caps, cost, part);
    obs::set_enabled(false);
    ASSERT_GE(stats.moves, 1u);

    const Json doc = parse_json(obs::explain_json());
    const Json& apply = doc.at("global").at("multilevel.fm").at("apply");
    EXPECT_EQ(apply.at("count").to_uint(), stats.moves);
    for (const Json& s : apply.at("samples").items()) {
        EXPECT_GT(s.at("gain").to_double(), 0.0);
        EXPECT_GE(s.at("vertex").to_int(), 0);
        EXPECT_GE(s.at("round").to_int(), 0);
    }
}

// ------------------------------------------------------- layer: routing

TEST(DecisionLayers, RoutingDetourRecordsBothRouteStrings)
{
    reset_obs(true);
    // Triangle with a degraded 0-2 fiber: max-fidelity routing detours
    // that one pair through node 1 and keeps the other two direct.
    hw::Machine m = hw::Machine::homogeneous(3, 2, hw::Topology::Ring);
    m.link.fidelity = 0.99;
    m.link.set_link_fidelity(0, 2, 0.55);
    m.build_routing();
    obs::set_enabled(false);
    ASSERT_EQ(m.hops(0, 2), 2);

    const Json doc = parse_json(obs::explain_json());
    const Json& path = doc.at("global").at("route.path");
    EXPECT_EQ(path.at("minimal").at("count").to_uint(), 2u);
    const Json& detour = path.at("detour");
    EXPECT_EQ(detour.at("count").to_uint(), 1u);
    const Json& s = detour.at("samples").items().at(0);
    EXPECT_EQ(s.at("a").to_int(), 0);
    EXPECT_EQ(s.at("b").to_int(), 2);
    EXPECT_EQ(s.at("bfs").to_string(), "0-2");
    EXPECT_EQ(s.at("chosen").to_string(), "0-1-2");
    EXPECT_EQ(s.at("extra_hops").to_int(), 1);
}

// --------------------------------------------------------- determinism

TEST(DecisionDeterminism, PerCellCountsIdenticalAcrossThreadCounts)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {12};
    grid.node_counts = {2, 4};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Star};
    grid.link_fidelities = {0.95};
    grid.target_fidelities = {0.99};
    grid.link_bandwidths = {2};
    grid.link_fidelity_overrides = {{0, 1, 0.93}};
    const std::vector<driver::SweepCell> cells = grid.cells();

    using Counts = std::map<std::string, std::uint64_t>;
    struct Recorded
    {
        std::map<std::string, Counts> cells; ///< scope -> counter -> n
        Counts shared; ///< global aggregate.* and schedule.scheme.*
    };
    auto run = [&](std::size_t threads) {
        reset_obs(true);
        obs::set_ring_capacity(4096); // counts must survive rotation
        driver::SweepOptions opts;
        opts.num_threads = threads;
        (void)driver::run_sweep(cells, opts);
        obs::set_enabled(false);
        obs::set_ring_capacity(0);
        const obs::Registry& reg = obs::Registry::instance();
        Recorded out;
        for (const std::string& scope : reg.scope_names())
            for (const std::string& name :
                 reg.scoped_counter_names(scope))
                if (name.rfind("decision.", 0) == 0)
                    out.cells[scope][name] =
                        reg.find_scoped_counter(scope, name)->value();
        // Aggregation and scheme assignment are shared sweep stages, so
        // their decisions carry no cell scope; compare them through the
        // global counters.
        for (const std::string& name : reg.counter_names())
            if (name.rfind("decision.aggregate.", 0) == 0 ||
                name.rfind("decision.schedule.scheme.", 0) == 0)
                out.shared[name] = reg.find_counter(name)->value();
        return out;
    };

    const Recorded serial = run(1);
    const Recorded parallel = run(8);

    ASSERT_EQ(serial.cells.size(), cells.size());
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (const auto& [scope, counts] : serial.cells) {
        const auto it = parallel.cells.find(scope);
        ASSERT_NE(it, parallel.cells.end()) << scope;
        EXPECT_EQ(counts, it->second) << scope;
    }
    EXPECT_EQ(serial.shared, parallel.shared);

    // The noisy overridden-link grid must actually exercise the
    // decision-heavy paths this test pins (not vacuous equality).
    std::uint64_t purify = 0, scheme = 0, route = 0, burst = 0;
    for (const auto& [scope, counts] : serial.cells)
        for (const auto& [name, value] : counts) {
            if (name.rfind("decision.schedule.purify.", 0) == 0)
                purify += value;
            if (name.rfind("decision.route.path.", 0) == 0)
                route += value;
        }
    for (const auto& [name, value] : serial.shared) {
        if (name.rfind("decision.schedule.scheme.", 0) == 0)
            scheme += value;
        if (name.rfind("decision.aggregate.burst.", 0) == 0)
            burst += value;
    }
    EXPECT_GT(purify, 0u);
    EXPECT_GT(scheme, 0u);
    EXPECT_GT(route, 0u);
    EXPECT_GT(burst, 0u);
}

} // namespace
