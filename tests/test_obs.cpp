/**
 * @file
 * Tests for the observability subsystem (src/obs): the disabled-by-
 * default contract, span recording/nesting/thread attribution, counter
 * and histogram correctness (percentiles on known distributions),
 * per-cell metric scopes, gauges and the resource sampler, the
 * flight-recorder ring, Chrome-trace and stats JSON well-formedness
 * (parsed back with the cache's own JSON parser), and the pure-observer
 * guarantee — sweep CSVs are byte-identical with everything enabled at
 * any thread count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/json.hpp"
#include "cache/store.hpp"
#include "circuits/library.hpp"
#include "driver/sweep.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace {

using namespace autocomm;
using cache::Json;

/** Wipe all recorded obs state and set the enabled flag. Tests share
 * one process-wide registry and trace buffer, so every test starts by
 * declaring the world it wants. */
void
reset_obs(bool enable)
{
    obs::set_enabled(enable);
    obs::reset();
    obs::Registry::instance().reset();
}

// ---------------------------------------------------------------- gating

// Must run before anything enables tracing: the subsystem is compiled
// in but OFF until a bench or test opts in.
TEST(ObsGating, DisabledByDefault)
{
    EXPECT_FALSE(obs::enabled());
}

TEST(ObsGating, DisabledSpansRecordNothing)
{
    reset_obs(false);
    for (int i = 0; i < 100'000; ++i) {
        obs::Span span("noop");
        obs::count("noop.counter");
        obs::observe_ns("noop.hist", 1);
    }
    obs::instant("noop.instant");
    EXPECT_TRUE(obs::collect_events().empty());
    EXPECT_EQ(obs::Registry::instance().find_counter("noop.counter"),
              nullptr);
    EXPECT_EQ(obs::Registry::instance().find_histogram("noop.hist"),
              nullptr);
    // The span histogram is fed from Span::end, which never ran.
    EXPECT_EQ(obs::Registry::instance().find_histogram("noop"), nullptr);
}

// ---------------------------------------------------------------- spans

TEST(ObsTrace, SpansRecordNestingAndLabels)
{
    reset_obs(true);
    {
        obs::Span outer("outer", "cell-label");
        {
            obs::Span inner("inner");
        }
        obs::instant("tick", "mark");
    }
    obs::set_enabled(false);

    const std::vector<obs::TraceEvent> events = obs::collect_events();
    ASSERT_EQ(events.size(), 3u);

    auto find = [&](const std::string& name) {
        const auto it =
            std::find_if(events.begin(), events.end(),
                         [&](const obs::TraceEvent& e) {
                             return name == e.name;
                         });
        EXPECT_NE(it, events.end()) << name;
        return *it;
    };
    const obs::TraceEvent outer = find("outer");
    const obs::TraceEvent inner = find("inner");
    const obs::TraceEvent tick = find("tick");

    EXPECT_EQ(outer.depth, 0);
    EXPECT_EQ(inner.depth, 1);
    EXPECT_EQ(outer.label, "cell-label");
    EXPECT_FALSE(outer.instant);
    EXPECT_TRUE(tick.instant);
    EXPECT_EQ(tick.dur_ns, 0u);
    EXPECT_EQ(tick.label, "mark");
    // The inner span is contained in the outer one.
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
    // All three ran on this thread's lane.
    EXPECT_EQ(outer.lane, inner.lane);
    EXPECT_EQ(outer.lane, tick.lane);

    // Span durations also landed in same-named registry histograms.
    const obs::Histogram* h =
        obs::Registry::instance().find_histogram("outer");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
}

TEST(ObsTrace, ThreadsGetDistinctNamedLanes)
{
    reset_obs(true);
    const int main_lane = obs::current_lane();
    obs::set_lane_name("main");

    int other_lane = -1;
    std::thread t([&]() {
        obs::set_lane_name("helper");
        obs::Span span("helper-span");
        other_lane = obs::current_lane();
    });
    t.join();
    obs::set_enabled(false);

    EXPECT_NE(other_lane, -1);
    EXPECT_NE(other_lane, main_lane);

    const std::vector<obs::TraceEvent> events = obs::collect_events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].lane, other_lane);

    // Lane names survive the recording thread's exit.
    bool saw_main = false, saw_helper = false;
    for (const auto& [lane, name] : obs::lanes()) {
        if (lane == main_lane && name == "main")
            saw_main = true;
        if (lane == other_lane && name == "helper")
            saw_helper = true;
    }
    EXPECT_TRUE(saw_main);
    EXPECT_TRUE(saw_helper);
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CountersAccumulate)
{
    reset_obs(true);
    obs::count("test.counter");
    obs::count("test.counter", 41);
    const obs::Counter* c =
        obs::Registry::instance().find_counter("test.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 42u);
}

TEST(ObsRegistry, HistogramExactStatsAndSmallValues)
{
    reset_obs(true);
    obs::Histogram& h = obs::Registry::instance().histogram("small");
    // Values 0..7 occupy exact single-value buckets, so even the
    // percentiles are exact.
    for (std::uint64_t v = 0; v < 8; ++v)
        h.observe(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.sum(), 28u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 7u);
    // Nearest rank of p50 over 8 samples is the 4th (value 3).
    EXPECT_NEAR(h.percentile(50.0), 3.0, 1.0);
    EXPECT_NEAR(h.percentile(100.0), 7.0, 0.5);
}

TEST(ObsRegistry, HistogramPercentilesOnUniformDistribution)
{
    reset_obs(true);
    obs::Histogram& h = obs::Registry::instance().histogram("uniform");
    // Uniform 1..1000: percentile(p) of the true distribution is ~10*p.
    // Log-bucketing with 4 sub-buckets per octave bounds the relative
    // error at ~19%, so assert a tolerant +-20% window.
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.observe(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), 500500u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_NEAR(h.percentile(50.0), 500.0, 100.0);
    EXPECT_NEAR(h.percentile(95.0), 950.0, 190.0);
    EXPECT_NEAR(h.percentile(99.0), 990.0, 198.0);
    // Percentiles are clamped into [min, max] regardless of bucket
    // boundaries.
    EXPECT_GE(h.percentile(0.0), 1.0);
    EXPECT_LE(h.percentile(100.0), 1000.0);
}

TEST(ObsRegistry, HistogramEmptyIsAllZero)
{
    reset_obs(true);
    const obs::Histogram& h =
        obs::Registry::instance().histogram("empty");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0.0);
}

// -------------------------------------------------------------- exports

TEST(ObsExport, ChromeTraceParsesBackWithLanesAndEvents)
{
    reset_obs(true);
    obs::set_lane_name("main");
    {
        obs::Span span("traced-pass", "QFT-16");
    }
    obs::set_enabled(false);

    const std::string doc_text = obs::chrome_trace_json();
    std::string err;
    const std::optional<Json> doc = Json::parse(doc_text, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    ASSERT_TRUE(doc->is_object());
    const Json& events = doc->at("traceEvents");
    ASSERT_TRUE(events.is_array());

    bool saw_thread_name = false, saw_span = false;
    for (const Json& e : events.items()) {
        const std::string& ph = e.at("ph").to_string();
        if (ph == "M" && e.at("name").to_string() == "thread_name" &&
            e.at("args").at("name").to_string() == "main")
            saw_thread_name = true;
        if (ph == "X" && e.at("name").to_string() == "traced-pass") {
            saw_span = true;
            EXPECT_GE(e.at("dur").to_double(), 0.0);
            EXPECT_GE(e.at("ts").to_double(), 0.0);
            EXPECT_EQ(e.at("pid").to_int(), 1);
            EXPECT_EQ(e.at("args").at("label").to_string(), "QFT-16");
        }
    }
    EXPECT_TRUE(saw_thread_name);
    EXPECT_TRUE(saw_span);
}

TEST(ObsExport, StatsJsonCarriesWellKnownCountersAndPercentiles)
{
    reset_obs(true);
    obs::count("cache.hits", 3);
    obs::Registry::instance().histogram("aggregate").observe(1'000'000);
    obs::set_enabled(false);

    std::string err;
    const std::optional<Json> doc = Json::parse(obs::stats_json(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const Json& counters = doc->at("counters");
    EXPECT_EQ(counters.at("cache.hits").to_int(), 3);
    // Never-incremented well-known counters are present as zeros — the
    // stable schema a monitoring consumer relies on.
    EXPECT_EQ(counters.at("cache.misses").to_int(), 0);
    EXPECT_EQ(counters.at("pipeline.cells_completed").to_int(), 0);
    EXPECT_EQ(counters.at("schedule.epr_pairs").to_int(), 0);

    const Json& agg = doc->at("histograms").at("aggregate");
    EXPECT_EQ(agg.at("count").to_int(), 1);
    EXPECT_NEAR(agg.at("sum_ms").to_double(), 1.0, 1e-9);
    EXPECT_GT(agg.at("p50_ms").to_double(), 0.0);
    EXPECT_GT(agg.at("p99_ms").to_double(), 0.0);

    const std::string report = obs::stats_report();
    EXPECT_NE(report.find("aggregate"), std::string::npos);
    EXPECT_NE(report.find("cache.hits"), std::string::npos);
}

// ------------------------------------------------------- pure observer

TEST(ObsPureObserver, SweepCsvByteIdenticalTracingOnOrOff)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {12, 16};
    grid.node_counts = {2};
    const std::vector<driver::SweepCell> cells = grid.cells();

    auto run = [&](bool traced, std::size_t threads) {
        reset_obs(traced);
        driver::SweepOptions opts;
        opts.num_threads = threads;
        const std::string csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        obs::set_enabled(false);
        return csv;
    };

    const std::string off1 = run(false, 1);
    const std::string on1 = run(true, 1);
    const std::string off8 = run(false, 8);
    const std::string on8 = run(true, 8);
    EXPECT_EQ(off1, on1);
    EXPECT_EQ(off1, off8);
    EXPECT_EQ(off1, on8);

    // And the traced parallel run actually recorded the pipeline: spans
    // for every stage plus per-cell start/completion counters.
    reset_obs(true);
    driver::SweepOptions opts;
    opts.num_threads = 8;
    (void)driver::run_sweep(cells, opts);
    obs::set_enabled(false);
    const obs::Registry& reg = obs::Registry::instance();
    for (const char* name : {"decompose", "graph", "partition", "cell",
                             "aggregate", "assign", "reorder", "schedule"})
    {
        const obs::Histogram* h = reg.find_histogram(name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_GT(h->count(), 0u) << name;
    }
    const obs::Counter* started =
        reg.find_counter("pipeline.cells_started");
    const obs::Counter* completed =
        reg.find_counter("pipeline.cells_completed");
    ASSERT_NE(started, nullptr);
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(started->value(), cells.size());
    EXPECT_EQ(completed->value(), cells.size());
}

// --------------------------------------------------------------- gauges

TEST(ObsGauge, SetAddExtremaAndLast)
{
    reset_obs(true);
    obs::Gauge& g = obs::Registry::instance().gauge("test.gauge");
    g.set(10.0);
    g.set(-2.5);
    g.add(5.0);
    EXPECT_EQ(g.samples(), 3u);
    EXPECT_DOUBLE_EQ(g.last(), 2.5);
    EXPECT_DOUBLE_EQ(g.min(), -2.5);
    EXPECT_DOUBLE_EQ(g.max(), 10.0);
}

TEST(ObsGauge, EmptyGaugeReadsZero)
{
    reset_obs(true);
    const obs::Gauge& g = obs::Registry::instance().gauge("untouched");
    EXPECT_EQ(g.samples(), 0u);
    EXPECT_DOUBLE_EQ(g.last(), 0.0);
    EXPECT_DOUBLE_EQ(g.min(), 0.0);
    EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(ObsGauge, GaugeSetIsGatedOnEnabled)
{
    reset_obs(false);
    obs::gauge_set("gated.gauge", 7.0);
    EXPECT_EQ(obs::Registry::instance().find_gauge("gated.gauge"),
              nullptr);

    reset_obs(true);
    obs::gauge_set("gated.gauge", 7.0);
    const obs::Gauge* g =
        obs::Registry::instance().find_gauge("gated.gauge");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->last(), 7.0);
    obs::set_enabled(false);
}

TEST(ObsGauge, SampleOncePopulatesResourceGauges)
{
    reset_obs(true);
    obs::ResourceSampler::sample_once();
    obs::set_enabled(false);

    const obs::Registry& reg = obs::Registry::instance();
    for (const char* name : {"pool.queue_depth", "pool.active_workers",
                             "pool.utilization", "cache.store_bytes"}) {
        const obs::Gauge* g = reg.find_gauge(name);
        ASSERT_NE(g, nullptr) << name;
        EXPECT_EQ(g->samples(), 1u) << name;
    }
    // RSS comes from procfs; where it exists the peak is nonzero.
    if (const obs::Gauge* rss = reg.find_gauge("proc.rss_bytes")) {
        EXPECT_GT(rss->max(), 0.0);
    }
    // Each sample also lands as a Chrome counter ("C") event.
    const std::vector<obs::TraceEvent> events = obs::collect_events();
    EXPECT_FALSE(events.empty());
    for (const obs::TraceEvent& e : events)
        EXPECT_TRUE(e.counter);
}

// -------------------------------------------------------- per-cell scopes

TEST(ObsScope, CountsAndSpansAttributeToTheActiveScope)
{
    reset_obs(true);
    obs::count("work.units", 1); // unscoped: no CellScope active
    {
        obs::CellScope scope("cell-A");
        obs::count("work.units", 2);
        obs::observe_ns("work.latency", 1000);
        {
            // Nesting: the innermost scope wins, and the outer one is
            // restored on exit.
            obs::CellScope inner("cell-B");
            obs::count("work.units", 5);
        }
        obs::count("work.units", 3);
    }
    obs::count("work.units", 10);
    obs::set_enabled(false);

    const obs::Registry& reg = obs::Registry::instance();
    // The global counter sees everything.
    EXPECT_EQ(reg.find_counter("work.units")->value(), 21u);
    // Scoped counters see exactly their own slice.
    ASSERT_NE(reg.find_scoped_counter("cell-A", "work.units"), nullptr);
    EXPECT_EQ(reg.find_scoped_counter("cell-A", "work.units")->value(),
              5u);
    EXPECT_EQ(reg.find_scoped_counter("cell-B", "work.units")->value(),
              5u);
    const obs::Histogram* h =
        reg.find_scoped_histogram("cell-A", "work.latency");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    const std::vector<std::string> scopes = reg.scope_names();
    EXPECT_EQ(scopes, (std::vector<std::string>{"cell-A", "cell-B"}));
}

TEST(ObsScope, DisabledCellScopeRecordsNothing)
{
    reset_obs(false);
    {
        obs::CellScope scope("ghost");
        obs::count("ghost.counter");
    }
    EXPECT_TRUE(obs::Registry::instance().scope_names().empty());
}

TEST(ObsScope, SweepAttributionIsDeterministicAcrossThreadCounts)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::QAOA};
    grid.qubit_counts = {12};
    grid.node_counts = {2};
    const std::vector<driver::SweepCell> cells = grid.cells();

    struct CellStats
    {
        std::uint64_t started = 0, completed = 0, epr = 0;
        std::uint64_t cell_spans = 0;
    };
    auto run = [&](std::size_t threads) {
        reset_obs(true);
        driver::SweepOptions opts;
        opts.num_threads = threads;
        (void)driver::run_sweep(cells, opts);
        obs::set_enabled(false);
        const obs::Registry& reg = obs::Registry::instance();
        std::vector<std::pair<std::string, CellStats>> out;
        for (const std::string& scope : reg.scope_names()) {
            CellStats s;
            if (const obs::Counter* c = reg.find_scoped_counter(
                    scope, "pipeline.cells_started"))
                s.started = c->value();
            if (const obs::Counter* c = reg.find_scoped_counter(
                    scope, "pipeline.cells_completed"))
                s.completed = c->value();
            if (const obs::Counter* c =
                    reg.find_scoped_counter(scope, "schedule.epr_pairs"))
                s.epr = c->value();
            if (const obs::Histogram* h =
                    reg.find_scoped_histogram(scope, "cell"))
                s.cell_spans = h->count();
            out.emplace_back(scope, s);
        }
        return out;
    };

    const auto serial = run(1);
    const auto parallel = run(8);

    // One scope per cell, and per-cell numbers identical at any thread
    // count — attribution does not depend on which worker ran the cell.
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), serial.size());
    std::vector<std::string> labels;
    for (const driver::SweepCell& c : cells)
        labels.push_back(c.label());
    std::sort(labels.begin(), labels.end());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].first, labels[i]);
        EXPECT_EQ(serial[i].first, parallel[i].first);
        EXPECT_EQ(serial[i].second.started, 1u) << serial[i].first;
        EXPECT_EQ(serial[i].second.completed, 1u) << serial[i].first;
        EXPECT_EQ(serial[i].second.cell_spans, 1u) << serial[i].first;
        EXPECT_EQ(serial[i].second.epr, parallel[i].second.epr)
            << serial[i].first;
    }

    // Scoped EPR counts partition the global one exactly.
    reset_obs(true);
    driver::SweepOptions opts;
    opts.num_threads = 8;
    (void)driver::run_sweep(cells, opts);
    obs::set_enabled(false);
    const obs::Registry& reg = obs::Registry::instance();
    std::uint64_t scoped_epr = 0;
    for (const std::string& scope : reg.scope_names())
        if (const obs::Counter* c =
                reg.find_scoped_counter(scope, "schedule.epr_pairs"))
            scoped_epr += c->value();
    ASSERT_NE(reg.find_counter("schedule.epr_pairs"), nullptr);
    EXPECT_EQ(scoped_epr, reg.find_counter("schedule.epr_pairs")->value());
}

TEST(ObsScope, FerrariCellsStayUnscoped)
{
    // run_sweep compiles the Ferrari baseline as internal cells, one per
    // (program, machine). They record globally, as shared stages do, and
    // open no scope, no `cell` span and no pipeline.cells_* count: the
    // stats JSON has exactly the user's cells, at any thread count.
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::QAOA};
    grid.qubit_counts = {12};
    grid.node_counts = {2};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Ring};
    grid.option_sets = {driver::OptionSet{},
                        *driver::find_option_set("sparse")};
    grid.with_baseline = true;
    const std::vector<driver::SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 8u);
    const std::size_t ferrari_cells = 2 * 2; // programs x machines

    std::vector<std::string> labels;
    for (const driver::SweepCell& c : cells)
        labels.push_back(c.label());
    std::sort(labels.begin(), labels.end());

    auto csv_of = [&](bool traced, std::size_t threads) {
        reset_obs(traced);
        driver::SweepOptions opts;
        opts.num_threads = threads;
        const std::vector<driver::SweepRow> rows =
            driver::run_sweep(cells, opts);
        obs::set_enabled(false);
        for (const driver::SweepRow& r : rows) {
            EXPECT_TRUE(r.ok) << r.cell.label() << ": " << r.error;
            EXPECT_TRUE(r.factors && r.factors->improv_factor > 0.0)
                << r.cell.label();
        }
        return driver::sweep_csv(rows).to_string();
    };

    const std::string untraced = csv_of(false, 8);
    for (std::size_t threads : {1u, 8u}) {
        EXPECT_EQ(csv_of(true, threads), untraced) << threads << " threads";
        const obs::Registry& reg = obs::Registry::instance();
        EXPECT_EQ(reg.scope_names(), labels) << threads << " threads";
        std::uint64_t scoped_schedules = 0;
        for (const std::string& scope : reg.scope_names()) {
            const obs::Counter* started =
                reg.find_scoped_counter(scope, "pipeline.cells_started");
            const obs::Counter* completed =
                reg.find_scoped_counter(scope, "pipeline.cells_completed");
            const obs::Histogram* cell = reg.find_scoped_histogram(scope,
                                                                   "cell");
            ASSERT_TRUE(started && completed && cell) << scope;
            EXPECT_EQ(started->value(), 1u) << scope;
            EXPECT_EQ(completed->value(), 1u) << scope;
            EXPECT_EQ(cell->count(), 1u) << scope;
            if (const obs::Histogram* h =
                    reg.find_scoped_histogram(scope, "schedule"))
                scoped_schedules += h->count();
        }
        ASSERT_NE(reg.find_counter("pipeline.cells_started"), nullptr);
        EXPECT_EQ(reg.find_counter("pipeline.cells_started")->value(),
                  cells.size());
        // The Ferrari schedules ran, globally only.
        EXPECT_EQ(scoped_schedules, cells.size());
        ASSERT_NE(reg.find_histogram("schedule"), nullptr);
        EXPECT_EQ(reg.find_histogram("schedule")->count(),
                  cells.size() + ferrari_cells);
    }
    reset_obs(false);
}

TEST(ObsScope, WarmStoreLookupsAttributePerCell)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("autocomm-test-obsscope-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {12, 16};
    grid.node_counts = {2};
    const std::vector<driver::SweepCell> cells = grid.cells();

    {
        // Cold run fills the store.
        cache::ResultStore store(dir.string());
        driver::SweepOptions opts;
        opts.store = &store;
        (void)driver::run_sweep(cells, opts);
        store.flush();
    }
    reset_obs(true);
    {
        cache::ResultStore store(dir.string());
        driver::SweepOptions opts;
        opts.store = &store;
        (void)driver::run_sweep(cells, opts);
    }
    obs::set_enabled(false);
    fs::remove_all(dir);

    const obs::Registry& reg = obs::Registry::instance();
    for (const driver::SweepCell& cell : cells) {
        const obs::Counter* hits =
            reg.find_scoped_counter(cell.label(), "cache.hits");
        ASSERT_NE(hits, nullptr) << cell.label();
        EXPECT_EQ(hits->value(), 1u) << cell.label();
    }
}

// ------------------------------------------------------- flight recorder

TEST(ObsRing, KeepsTheLastEventsInOrder)
{
    reset_obs(true);
    obs::set_ring_capacity(4);
    for (int i = 0; i < 10; ++i)
        obs::instant("tick", std::to_string(i));
    obs::set_enabled(false);

    const std::vector<obs::TraceEvent> events = obs::collect_events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first rotation: the last four instants in emission order.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].name, "tick");
        EXPECT_EQ(events[i].label, std::to_string(6 + i));
    }
    obs::set_ring_capacity(0);
    EXPECT_EQ(obs::ring_capacity(), 0u);
}

TEST(ObsRing, UnboundedBelowCapacity)
{
    reset_obs(true);
    obs::set_ring_capacity(16);
    for (int i = 0; i < 5; ++i)
        obs::instant("tick", std::to_string(i));
    obs::set_enabled(false);
    const std::vector<obs::TraceEvent> events = obs::collect_events();
    ASSERT_EQ(events.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].label, std::to_string(i));
    obs::set_ring_capacity(0);
}

// ---------------------------------------------- gc + stats JSON schema

TEST(ObsExport, StatsJsonCarriesGaugesAndCells)
{
    reset_obs(true);
    obs::gauge_set("proc.rss_bytes", 1234.0);
    {
        obs::CellScope scope("QFT-12-2/default");
        obs::count("schedule.epr_pairs", 7);
        obs::observe_ns("cell", 2'000'000);
    }
    obs::set_enabled(false);

    std::string err;
    const std::optional<Json> doc = Json::parse(obs::stats_json(), &err);
    ASSERT_TRUE(doc.has_value()) << err;

    const Json& gauges = doc->at("gauges");
    EXPECT_DOUBLE_EQ(gauges.at("proc.rss_bytes").at("last").to_double(),
                     1234.0);
    EXPECT_EQ(gauges.at("proc.rss_bytes").at("samples").to_int(), 1);
    // Untouched well-known gauges are zero-filled schema entries.
    for (const char* name : {"pool.queue_depth", "pool.active_workers",
                             "pool.utilization", "cache.store_bytes"}) {
        EXPECT_EQ(gauges.at(name).at("samples").to_int(), 0) << name;
        EXPECT_DOUBLE_EQ(gauges.at(name).at("last").to_double(), 0.0)
            << name;
    }

    const Json& cell = doc->at("cells").at("QFT-12-2/default");
    EXPECT_EQ(cell.at("counters").at("schedule.epr_pairs").to_int(), 7);
    const Json& h = cell.at("histograms").at("cell");
    EXPECT_EQ(h.at("count").to_int(), 1);
    EXPECT_NEAR(h.at("sum_ms").to_double(), 2.0, 1e-9);
    EXPECT_GT(h.at("p95_ms").to_double(), 0.0);
}

TEST(ObsExport, StoreGcEmitsEvictionCountersAndMark)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("autocomm-test-obsgc-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {12};
    grid.node_counts = {2};
    const std::vector<driver::SweepCell> cells = grid.cells();

    reset_obs(true);
    {
        cache::ResultStore store(dir.string());
        driver::SweepOptions opts;
        opts.store = &store;
        (void)driver::run_sweep(cells, opts);
        EXPECT_GT(store.approx_bytes(), 0u);
        // Evict everything: a zero-byte budget drops every entry.
        EXPECT_EQ(store.gc_to_bytes(0), cells.size());
        EXPECT_EQ(store.approx_bytes(), 0u);
    }
    obs::set_enabled(false);
    fs::remove_all(dir);

    const obs::Registry& reg = obs::Registry::instance();
    ASSERT_NE(reg.find_counter("cache.gc_evicted_entries"), nullptr);
    EXPECT_EQ(reg.find_counter("cache.gc_evicted_entries")->value(),
              cells.size());
    ASSERT_NE(reg.find_counter("cache.gc_evicted_bytes"), nullptr);
    EXPECT_GT(reg.find_counter("cache.gc_evicted_bytes")->value(), 0u);

    // The gc pass left an instant mark in the trace.
    bool saw_mark = false;
    for (const obs::TraceEvent& e : obs::collect_events())
        if (e.instant && std::string(e.name) == "cache.gc")
            saw_mark = true;
    EXPECT_TRUE(saw_mark);

    // And the eviction counters are part of the zero-filled well-known
    // schema even on a fresh registry.
    reset_obs(false);
    std::string err;
    const std::optional<Json> doc = Json::parse(obs::stats_json(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->at("counters").at("cache.gc_evicted_entries").to_int(),
              0);
    EXPECT_EQ(doc->at("counters").at("cache.gc_evicted_bytes").to_int(),
              0);
}

// The strongest pure-observer check: sampler thread + ring mode + scopes
// all on, and the sweep CSV is still byte-identical to the all-off run.
TEST(ObsPureObserver, SweepCsvByteIdenticalWithSamplerAndRing)
{
    driver::SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {12, 16};
    grid.node_counts = {2};
    const std::vector<driver::SweepCell> cells = grid.cells();

    auto run = [&](bool instrumented, std::size_t threads) {
        reset_obs(instrumented);
        std::optional<obs::ResourceSampler> sampler;
        if (instrumented) {
            obs::set_ring_capacity(512);
            sampler.emplace(/*interval_ms=*/1);
        }
        driver::SweepOptions opts;
        opts.num_threads = threads;
        const std::string csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        if (sampler)
            sampler->stop();
        obs::set_ring_capacity(0);
        obs::set_enabled(false);
        return csv;
    };

    const std::string off1 = run(false, 1);
    EXPECT_EQ(off1, run(true, 1));
    EXPECT_EQ(off1, run(true, 8));
}

} // namespace
