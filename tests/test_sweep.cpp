/**
 * @file
 * Property tests for the driver::run_sweep compilation sweep: grid
 * expansion, metric determinism under 1 vs N threads, edge cases (empty
 * grid, single cell), and worker-exception handling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace {

using namespace autocomm;
using driver::SweepCell;
using driver::SweepGrid;
using driver::SweepOptions;
using driver::SweepRow;

SweepGrid
small_grid()
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {8, 12};
    grid.node_counts = {2, 4};
    grid.option_sets = {driver::OptionSet{},
                        *driver::find_option_set("sparse")};
    return grid;
}

TEST(SweepGrid, CellsIsTheCartesianProductInRowMajorOrder)
{
    const SweepGrid grid = small_grid();
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u);
    EXPECT_EQ(cells.front().label(), "QFT-8-2/default");
    EXPECT_EQ(cells[1].label(), "QFT-8-2/sparse");
    EXPECT_EQ(cells[2].label(), "QFT-8-4/default");
    EXPECT_EQ(cells.back().label(), "BV-12-4/sparse");
}

TEST(SweepGrid, EmptyDimensionYieldsNoCells)
{
    SweepGrid grid = small_grid();
    grid.qubit_counts.clear();
    EXPECT_TRUE(grid.cells().empty());
}

TEST(Sweep, EmptyCellListYieldsEmptyRows)
{
    EXPECT_TRUE(driver::run_sweep({}, {}).empty());
}

TEST(Sweep, SingleCellMatchesDirectRunCell)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    const SweepRow direct = driver::run_cell(cell);
    ASSERT_TRUE(direct.ok);

    const std::vector<SweepRow> rows = driver::run_sweep({cell}, {});
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_TRUE(rows[0].ok);
    EXPECT_EQ(rows[0].metrics.total_comms, direct.metrics.total_comms);
    EXPECT_EQ(rows[0].metrics.tp_comms, direct.metrics.tp_comms);
    EXPECT_DOUBLE_EQ(rows[0].schedule.makespan, direct.schedule.makespan);
    EXPECT_GT(rows[0].stats.total_gates, 0u);
    EXPECT_GT(rows[0].remote_cx, 0u);
}

TEST(Sweep, MetricsAreIdenticalUnderOneVsManyThreads)
{
    SweepGrid grid = small_grid();
    grid.with_baseline = true;
    const std::vector<SweepCell> cells = grid.cells();

    SweepOptions serial;
    serial.num_threads = 1;
    SweepOptions parallel;
    parallel.num_threads = 4;

    const std::string csv1 =
        driver::sweep_csv(driver::run_sweep(cells, serial)).to_string();
    const std::string csv4 =
        driver::sweep_csv(driver::run_sweep(cells, parallel)).to_string();
    EXPECT_EQ(csv1, csv4);
}

TEST(Sweep, PipelineCsvIsByteIdenticalAtOneTwoAndEightThreads)
{
    // The stage pipeline overlaps decompose -> partition -> compile
    // across cells instead of running them as barrier phases. Mixing
    // healthy cells with a geometry-reject cell and a bad-program cell
    // exercises every stage's error path; the CSV must stay
    // byte-identical no matter how many workers race through the DAG.
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {10, 12};
    grid.node_counts = {2, 3};
    grid.option_sets = {driver::OptionSet{},
                        *driver::find_option_set("sparse")};
    std::vector<SweepCell> cells = grid.cells();
    SweepCell bad_geom;
    bad_geom.spec = {circuits::Family::QFT, 16, 2};
    bad_geom.shape = "2x4"; // 8 < 16 qubits
    cells.push_back(bad_geom);
    SweepCell bad_prog;
    bad_prog.spec = {circuits::Family::QFT, -5, 2};
    cells.push_back(bad_prog);

    std::string baseline;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        SweepOptions opts;
        opts.num_threads = threads;
        const std::string csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        if (baseline.empty())
            baseline = csv;
        else
            EXPECT_EQ(csv, baseline) << threads << " threads";
    }
}

TEST(Sweep, RepeatedRunsAreDeterministic)
{
    const std::vector<SweepCell> cells = small_grid().cells();
    const std::string a =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();
    const std::string b =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();
    EXPECT_EQ(a, b);
}

TEST(Sweep, InvalidCellIsRecordedAsErrorRow)
{
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, -5, 2};
    SweepCell good;
    good.spec = {circuits::Family::BV, 8, 2};

    const std::vector<SweepRow> rows = driver::run_sweep({bad, good}, {});
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_FALSE(rows[0].ok);
    EXPECT_NE(rows[0].error.find("positive"), std::string::npos);
    EXPECT_TRUE(rows[1].ok);
}

TEST(Sweep, OptionSetsChangeTheCompilation)
{
    SweepCell def;
    def.spec = {circuits::Family::QFT, 12, 2};
    SweepCell sparse = def;
    sparse.options = *driver::find_option_set("sparse");

    const SweepRow r_def = driver::run_cell(def);
    const SweepRow r_sparse = driver::run_cell(sparse);
    ASSERT_TRUE(r_def.ok);
    ASSERT_TRUE(r_sparse.ok);
    // Disabling commutation-based aggregation degenerates to sparse
    // communication: strictly more communications for a QFT.
    EXPECT_GT(r_sparse.metrics.total_comms, r_def.metrics.total_comms);
}

TEST(Sweep, BuiltinOptionSetsAreFindableByName)
{
    for (const driver::OptionSet& s : driver::builtin_option_sets()) {
        auto found = driver::find_option_set(s.name);
        ASSERT_TRUE(found.has_value()) << s.name;
        EXPECT_EQ(found->name, s.name);
    }
    EXPECT_FALSE(driver::find_option_set("no-such-set").has_value());
}

TEST(Sweep, CsvHasOneLinePerCellPlusHeader)
{
    const std::vector<SweepCell> cells = small_grid().cells();
    const std::string csv =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();
    const std::size_t lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(lines, cells.size() + 1);
}

TEST(SweepGrid, TopologyAxisExpandsBetweenNodesAndOptions)
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {8};
    grid.node_counts = {2, 4};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Ring};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].label(), "QFT-8-2/default");
    EXPECT_EQ(cells[1].label(), "QFT-8-2+ring/default");
    EXPECT_EQ(cells[2].label(), "QFT-8-4/default");
    EXPECT_EQ(cells[3].label(), "QFT-8-4+ring/default");
}

TEST(SweepGrid, ShapeAxisReplacesNodeCountsAndFixesNodeCount)
{
    SweepGrid grid;
    grid.families = {circuits::Family::BV};
    grid.qubit_counts = {16};
    grid.node_counts = {999}; // must be ignored in favor of shapes
    grid.shapes = {"2x8", "1x4,2x8"};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].spec.num_nodes, 2);
    EXPECT_EQ(cells[0].label(), "BV-16-2@2x8/default");
    EXPECT_EQ(cells[1].spec.num_nodes, 3);
    EXPECT_EQ(cells[1].label(), "BV-16-3@1x4,2x8/default");
}

TEST(Sweep, HopsTotalEqualsEprPairsOnAllToAll)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    const SweepRow r = driver::run_cell(cell);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.schedule.epr_pairs, 0u);
    EXPECT_EQ(r.schedule.hops_total, r.schedule.epr_pairs);
}

TEST(Sweep, RoutedTopologiesAreStrictlySlowerThanAllToAll)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    const SweepRow flat = driver::run_cell(cell);
    ASSERT_TRUE(flat.ok);

    for (hw::Topology topo : {hw::Topology::Ring, hw::Topology::Grid,
                              hw::Topology::Star}) {
        SweepCell routed = cell;
        routed.topology = topo;
        const SweepRow r = driver::run_cell(routed);
        SCOPED_TRACE(hw::topology_name(topo));
        ASSERT_TRUE(r.ok) << r.error;
        // Same compilation (aggregation is topology-blind today)...
        EXPECT_EQ(r.metrics.total_comms, flat.metrics.total_comms);
        EXPECT_EQ(r.schedule.epr_pairs, flat.schedule.epr_pairs);
        // ...but multi-hop EPR routing strictly lengthens the schedule.
        EXPECT_GT(r.schedule.hops_total, r.schedule.epr_pairs);
        EXPECT_GT(r.schedule.makespan, flat.schedule.makespan);
    }
}

TEST(Sweep, HeterogeneousShapeCellCompilesAndValidates)
{
    SweepCell cell;
    cell.spec = {circuits::Family::BV, 40, 4};
    cell.shape = "2x8,2x30";
    cell.topology = hw::Topology::Ring;
    const SweepRow r = driver::run_cell(cell);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.stats.total_gates, 0u);
    EXPECT_EQ(r.cell.label(), "BV-40-4@2x8,2x30+ring/default");
}

TEST(Sweep, InsufficientShapeCapacityIsRecordedAsErrorRow)
{
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, 16, 2};
    bad.shape = "2x4"; // 8 < 16 qubits
    const std::vector<SweepRow> rows = driver::run_sweep({bad}, {});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].ok);
    EXPECT_NE(rows[0].error.find("capacity"), std::string::npos)
        << rows[0].error;
}

TEST(Sweep, CsvReportsTopologyShapeAndHops)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 12, 3};
    cell.shape = "3x4";
    cell.topology = hw::Topology::Ring;
    const std::string csv =
        driver::sweep_csv(driver::run_sweep({cell}, {})).to_string();
    EXPECT_NE(csv.find("topology"), std::string::npos);
    EXPECT_NE(csv.find("shape"), std::string::npos);
    EXPECT_NE(csv.find("hops_total"), std::string::npos);
    EXPECT_NE(csv.find("ring"), std::string::npos);
    // The shape field contains a comma only when the spec does; "3x4"
    // must appear unquoted.
    EXPECT_NE(csv.find("3x4"), std::string::npos);
}

TEST(Sweep, TopologyShapeGridIsDeterministicAcrossThreads)
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {12};
    grid.shapes = {"3x4", "1x6,2x3"};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Ring,
                       hw::Topology::Star};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 2u * 2u * 3u);

    SweepOptions serial;
    serial.num_threads = 1;
    SweepOptions parallel;
    parallel.num_threads = 4;
    const std::string csv1 =
        driver::sweep_csv(driver::run_sweep(cells, serial)).to_string();
    const std::string csv4 =
        driver::sweep_csv(driver::run_sweep(cells, parallel)).to_string();
    EXPECT_EQ(csv1, csv4);
}

TEST(SweepGrid, NoiseAxesExpandBetweenTopologyAndOptions)
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {8};
    grid.node_counts = {2};
    grid.link_fidelities = {1.0, 0.95};
    grid.target_fidelities = {0.0, 0.99};
    grid.link_bandwidths = {0, 2};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].label(), "QFT-8-2/default");
    EXPECT_EQ(cells[1].label(), "QFT-8-2~b2/default");
    EXPECT_EQ(cells[2].label(), "QFT-8-2~t0.99/default");
    EXPECT_EQ(cells[4].label(), "QFT-8-2~f0.95/default");
    EXPECT_EQ(cells.back().label(), "QFT-8-2~f0.95~t0.99~b2/default");
}

TEST(Sweep, NoisyCellIsStrictlySlowerAndReportsPurification)
{
    SweepCell clean;
    clean.spec = {circuits::Family::QFT, 16, 4};
    SweepCell noisy = clean;
    noisy.link_fidelity = 0.95;
    noisy.target_fidelity = 0.99;

    const SweepRow base = driver::run_cell(clean);
    const SweepRow r = driver::run_cell(noisy);
    ASSERT_TRUE(base.ok);
    ASSERT_TRUE(r.ok) << r.error;

    // Same compilation (aggregation is noise-blind)...
    EXPECT_EQ(r.metrics.total_comms, base.metrics.total_comms);
    EXPECT_EQ(r.schedule.epr_pairs, base.schedule.epr_pairs);
    // ...but purification multiplies raw pairs and strictly lengthens
    // the schedule, and the fidelity estimate drops below 1.
    EXPECT_GT(r.schedule.purify_rounds, 0u);
    EXPECT_GT(r.schedule.epr_raw_pairs, r.schedule.epr_pairs);
    EXPECT_GT(r.schedule.makespan, base.schedule.makespan);
    EXPECT_LT(r.schedule.program_fidelity(), 1.0);
    EXPECT_GT(r.schedule.program_fidelity(), 0.0);

    EXPECT_EQ(base.schedule.purify_rounds, 0u);
    EXPECT_EQ(base.schedule.epr_raw_pairs, base.schedule.epr_pairs);
    EXPECT_DOUBLE_EQ(base.schedule.program_fidelity(), 1.0);
}

TEST(Sweep, LinkBandwidthContentionShowsUpInTheSweep)
{
    SweepCell noisy;
    noisy.spec = {circuits::Family::QFT, 16, 4};
    noisy.link_fidelity = 0.95;
    noisy.target_fidelity = 0.99;
    SweepCell capped = noisy;
    capped.link_bandwidth = 1;

    const SweepRow fast = driver::run_cell(noisy);
    const SweepRow slow = driver::run_cell(capped);
    ASSERT_TRUE(fast.ok);
    ASSERT_TRUE(slow.ok) << slow.error;
    EXPECT_EQ(slow.schedule.epr_raw_pairs, fast.schedule.epr_raw_pairs);
    EXPECT_GT(slow.schedule.makespan, fast.schedule.makespan);
}

TEST(Sweep, UnreachableTargetIsRecordedAsFriendlyErrorRow)
{
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, 16, 4};
    bad.link_fidelity = 0.6;
    bad.target_fidelity = 0.99;
    bad.topology = hw::Topology::Ring; // 2-hop pairs fall below 0.5
    const std::vector<SweepRow> rows = driver::run_sweep({bad}, {});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].ok);
    EXPECT_NE(rows[0].error.find("purification"), std::string::npos)
        << rows[0].error;
}

TEST(Sweep, CsvReportsNoiseColumnsAndValues)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 12, 3};
    cell.link_fidelity = 0.95;
    cell.target_fidelity = 0.99;
    cell.link_bandwidth = 4;
    const std::string csv =
        driver::sweep_csv(driver::run_sweep({cell}, {})).to_string();
    for (const char* col :
         {"link_fidelity", "target_fidelity", "link_bandwidth",
          "epr_raw", "purify_rounds", "program_fidelity"})
        EXPECT_NE(csv.find(col), std::string::npos) << col;
    EXPECT_NE(csv.find("0.95"), std::string::npos);
    EXPECT_NE(csv.find("0.99"), std::string::npos);
}

TEST(Sweep, MemoizedSweepMatchesDirectRunCell)
{
    // run_sweep memoizes circuits, interaction graphs, OEE mappings,
    // aggregation (per mapping and aggregate options), and the Ferrari
    // baseline (per mapping and machine) across cells. Its CSV must
    // still equal one built from uncached run_cell rows, byte for byte,
    // at any thread count, error rows included.
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {12};
    grid.node_counts = {4};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Ring};
    grid.link_fidelities = {0.95};
    grid.target_fidelities = {0.97};
    grid.option_sets = driver::builtin_option_sets();
    // A non-builtin arm that flips two schedule flags at once; it shares
    // default's AggregateOptions, so it adds no aggregation group.
    driver::OptionSet greedy{"greedy", {}};
    greedy.opts.schedule.epr_prefetch = false;
    greedy.opts.schedule.tp_fusion = false;
    grid.option_sets.push_back(greedy);
    grid.with_baseline = true;
    std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 24u);
    // 0-2 is not a link of the 4-node ring, so this cell is a
    // deterministic error row that shares its program, mapping, and
    // aggregation groups with healthy cells: it fails in the cell stage.
    SweepCell bad = cells[6];
    ASSERT_EQ(bad.label(), "QFT-12-4+ring~f0.95~t0.97/default");
    bad.link_fidelity_overrides = {{0, 2, 0.9}};
    cells.push_back(bad);
    const std::size_t compiled = cells.size();
    // Two cells that fail in a shared stage and so never aggregate:
    // RCA needs an even register of at least 4 qubits, so its program
    // stage throws; multilevel builds the machine to partition, so the
    // bad override fails the mapping stage.
    SweepCell no_program = cells[0];
    no_program.spec = {circuits::Family::RCA, 3, 4};
    cells.push_back(no_program);
    SweepCell no_mapping = bad;
    no_mapping.partitioner = partition::Mapper::Multilevel;
    cells.push_back(no_mapping);

    std::vector<SweepRow> direct;
    for (const SweepCell& cell : cells) {
        try {
            direct.push_back(driver::run_cell(cell));
        } catch (const std::exception& e) {
            SweepRow row;
            row.cell = cell;
            row.error = e.what();
            direct.push_back(std::move(row));
        }
    }
    ASSERT_FALSE(direct[compiled - 1].ok);
    EXPECT_EQ(direct[compiled].error,
              "make_rca: need an even qubit count >= 4");
    EXPECT_EQ(direct[compiled + 1].error, direct[compiled - 1].error);
    const std::string expected = driver::sweep_csv(direct).to_string();

    for (std::size_t threads : {1u, 8u}) {
        SweepOptions opts;
        opts.num_threads = threads;
        EXPECT_EQ(driver::sweep_csv(driver::run_sweep(cells, opts))
                      .to_string(),
                  expected)
            << threads << " threads";
    }

    // With stats on, aggregation runs once per distinct (program,
    // aggregate options) and once inside each distinct (program,
    // machine)'s Ferrari compile. The bad cell's machine never builds,
    // so it compiles no baseline; the two shared-stage failures run
    // neither.
    std::set<std::string> aggregations, baselines;
    for (std::size_t i = 0; i < compiled; ++i) {
        const SweepRow& r = direct[i];
        aggregations.insert(
            r.cell.spec.label() +
            (r.cell.options.opts.aggregate.use_commutation ? "" : "/sc"));
        if (r.ok)
            baselines.insert(r.cell.spec.label() + "+" +
                             hw::topology_name(r.cell.topology));
    }
    ASSERT_EQ(aggregations.size(), 4u);
    ASSERT_EQ(baselines.size(), 4u);
    obs::set_enabled(true);
    obs::reset();
    obs::Registry::instance().reset();
    SweepOptions opts;
    opts.num_threads = 8;
    const std::string traced =
        driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
    obs::set_enabled(false);
    EXPECT_EQ(traced, expected);
    const obs::Histogram* spans =
        obs::Registry::instance().find_histogram("aggregate");
    ASSERT_NE(spans, nullptr);
    EXPECT_EQ(spans->count(), aggregations.size() + baselines.size());
    obs::reset();
    obs::Registry::instance().reset();
}

TEST(Sweep, SharedStatsAndCappedLinksMatchRunCell)
{
    // run_sweep counts gate stats once per program and remote CX once per
    // mapping, and schedules capped links through the pooled channel
    // table. Rows must still equal run_cell's: a stats_only cell reads
    // the shared counts, and bandwidth-2 cells with an unlimited 0-1
    // override drive the capped-link and multi-hop router paths (purified
    // pairs ask for more channels than a link has).
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {12};
    grid.node_counts = {4};
    grid.topologies = {hw::Topology::AllToAll, hw::Topology::Ring};
    grid.link_fidelities = {0.95};
    grid.target_fidelities = {0.97};
    grid.link_bandwidths = {0, 2};
    grid.link_bandwidth_overrides = {{0, 1, 0.0}};
    grid.with_baseline = true;
    std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 8u);
    SweepCell counts = cells[3];
    ASSERT_EQ(counts.link_bandwidth, 2);
    ASSERT_EQ(counts.topology, hw::Topology::Ring);
    counts.stats_only = true;
    cells.push_back(counts);
    cells[3].with_gptp = true;

    std::vector<SweepRow> direct;
    for (const SweepCell& cell : cells)
        direct.push_back(driver::run_cell(cell));
    for (const SweepRow& r : direct)
        ASSERT_TRUE(r.ok) << r.cell.label() << ": " << r.error;
    ASSERT_GT(direct.back().remote_cx, 0u);
    const std::string expected = driver::sweep_csv(direct).to_string();

    for (std::size_t threads : {1u, 8u}) {
        SweepOptions opts;
        opts.num_threads = threads;
        const std::vector<SweepRow> rows = driver::run_sweep(cells, opts);
        EXPECT_EQ(driver::sweep_csv(rows).to_string(), expected)
            << threads << " threads";
        ASSERT_TRUE(rows[3].gptp_factors && direct[3].gptp_factors);
        EXPECT_EQ(rows[3].gptp_factors->improv_factor,
                  direct[3].gptp_factors->improv_factor);
        EXPECT_EQ(rows[3].gptp_factors->lat_dec_factor,
                  direct[3].gptp_factors->lat_dec_factor);
    }
}

// ------------------------------------------------- CLI axis-list parsing

TEST(SweepParse, IntListEchoesTheOffendingToken)
{
    EXPECT_EQ(driver::parse_int_list("2,4,8", "--nodes"),
              (std::vector<int>{2, 4, 8}));
    try {
        driver::parse_int_list("2,banana", "--nodes");
        FAIL() << "expected UserError";
    } catch (const support::UserError& e) {
        EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos);
    }
    EXPECT_THROW(driver::parse_int_list("0", "--nodes"),
                 support::UserError); // below default minimum
    EXPECT_EQ(driver::parse_int_list("0,3", "--link-bandwidth", 0),
              (std::vector<int>{0, 3}));
    EXPECT_THROW(driver::parse_int_list("", "--nodes"),
                 support::UserError);
}

TEST(SweepParse, FidelityListValidatesTheRange)
{
    EXPECT_EQ(driver::parse_fidelity_list("0.9,1", "--link-fidelity"),
              (std::vector<double>{0.9, 1.0}));
    try {
        driver::parse_fidelity_list("1.5", "--link-fidelity");
        FAIL() << "expected UserError";
    } catch (const support::UserError& e) {
        EXPECT_NE(std::string(e.what()).find("1.5"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--link-fidelity"),
                  std::string::npos);
    }
    // 0 is rejected unless it means "disabled" (purification targets).
    EXPECT_THROW(driver::parse_fidelity_list("0", "--link-fidelity"),
                 support::UserError);
    EXPECT_EQ(driver::parse_fidelity_list("0,0.99", "--target-fidelity",
                                          /*zero_disables=*/true),
              (std::vector<double>{0.0, 0.99}));
    // Purification targets live in (0, 1): exactly 1 is asymptotically
    // unreachable and must fail at parse time, not per cell.
    EXPECT_THROW(driver::parse_fidelity_list("1", "--target-fidelity",
                                             /*zero_disables=*/true),
                 support::UserError);
}

TEST(SweepParse, TopologyListEchoesTheOffendingToken)
{
    EXPECT_EQ(driver::parse_topology_list("ring,star", "--topology"),
              (std::vector<hw::Topology>{hw::Topology::Ring,
                                         hw::Topology::Star}));
    try {
        driver::parse_topology_list("ring,torus", "--topology");
        FAIL() << "expected UserError";
    } catch (const support::UserError& e) {
        EXPECT_NE(std::string(e.what()).find("torus"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("all_to_all"),
                  std::string::npos); // lists the valid names
    }
}

TEST(SweepParse, ShapeListEchoesTheOffendingSpec)
{
    EXPECT_EQ(driver::parse_shape_list("4x10,2x30;8x10", "--shape"),
              (std::vector<std::string>{"4x10,2x30", "8x10"}));
    try {
        driver::parse_shape_list("4x10;2y30", "--shape");
        FAIL() << "expected UserError";
    } catch (const support::UserError& e) {
        EXPECT_NE(std::string(e.what()).find("2y30"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("--shape"),
                  std::string::npos);
    }
    EXPECT_THROW(driver::parse_shape_list("", "--shape"),
                 support::UserError);
}

TEST(SweepParse, OverrideListParsesSortsAndCanonicalizes)
{
    const std::vector<driver::LinkValue> got = driver::parse_override_list(
        "2-3:0.85,1-0:0.92", "--link-fidelity-override",
        /*integer_value=*/false);
    ASSERT_EQ(got.size(), 2u);
    // "1-0" normalizes to (0, 1) and sorts first.
    EXPECT_EQ(got[0].a, 0);
    EXPECT_EQ(got[0].b, 1);
    EXPECT_DOUBLE_EQ(got[0].value, 0.92);
    EXPECT_EQ(got[1].a, 2);
    EXPECT_EQ(got[1].b, 3);
    EXPECT_EQ(driver::override_spec(got), "0-1:0.92,2-3:0.85");

    const std::vector<driver::LinkValue> bw = driver::parse_override_list(
        "0-1:2,1-2:0", "--link-bandwidth-override", /*integer_value=*/true);
    ASSERT_EQ(bw.size(), 2u);
    EXPECT_DOUBLE_EQ(bw[0].value, 2.0);
    EXPECT_DOUBLE_EQ(bw[1].value, 0.0); // 0 = unlimited link
}

TEST(SweepParse, MalformedOverrideSpecsEchoTheToken)
{
    auto expect_error = [](const std::string& list, bool integer_value,
                           const std::string& needle) {
        try {
            driver::parse_override_list(list, "--flag", integer_value);
            FAIL() << "expected UserError for \"" << list << "\"";
        } catch (const support::UserError& e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << list << " -> " << e.what();
            EXPECT_NE(std::string(e.what()).find("--flag"),
                      std::string::npos);
        }
    };
    expect_error("a-b:", false, "a-b:");        // missing value, bad nodes
    expect_error("x-y:1.5", false, "x-y:1.5");  // non-integer nodes
    expect_error("0-1:", false, "0-1:");        // missing value
    expect_error("0-1:1.5", false, "1.5");      // fidelity out of range
    expect_error("0-1:0.1", false, "0.1");      // below the Werner floor
    expect_error("0-0:0.9", false, "distinct"); // self link
    expect_error("0-1:0.9,1-0:0.8", false, "twice"); // duplicate link
    expect_error("0-1:2.5", true, "2.5");       // non-integer bandwidth
    expect_error("0-1:-1", true, "-1");         // negative bandwidth
    expect_error("", false, "empty");
}

TEST(SweepParse, ShardSpecValidatesIndexAndCount)
{
    const driver::ShardSpec s = driver::parse_shard("1/4", "--shard");
    EXPECT_EQ(s.index, 1);
    EXPECT_EQ(s.count, 4);
    EXPECT_EQ(driver::parse_shard("0/1", "--shard").count, 1);

    for (const char* bad :
         {"0/0", "3/2", "2/2", "-1/2", "banana", "1", "1/", "/2", "1/b"}) {
        try {
            driver::parse_shard(bad, "--shard");
            FAIL() << "expected UserError for \"" << bad << "\"";
        } catch (const support::UserError& e) {
            EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
                << bad << " -> " << e.what();
        }
    }
}

TEST(Sweep, FidelityOverrideDetoursAndShowsUpInLabelAndCsv)
{
    // Ring of 4: route 0-1 directly, or detour 0-3-2-1. Degrading the
    // 0-1 fiber hard makes every axis visible: label, CSV, and metrics.
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    cell.topology = hw::Topology::Ring;
    cell.link_fidelity = 0.97;
    cell.target_fidelity = 0.9;
    cell.link_fidelity_overrides = {{0, 1, 0.5}};
    EXPECT_EQ(cell.label(), "QFT-16-4+ring~f0.97~t0.9~F(0-1:0.5)/default");

    const SweepRow r = driver::run_cell(cell);
    ASSERT_TRUE(r.ok) << r.error;

    SweepCell uniform = cell;
    uniform.link_fidelity_overrides.clear();
    const SweepRow u = driver::run_cell(uniform);
    ASSERT_TRUE(u.ok) << u.error;
    // The degraded fiber forces detours (more hops) somewhere.
    EXPECT_GT(r.schedule.hops_total, u.schedule.hops_total);

    const std::string csv =
        driver::sweep_csv({r}).to_string();
    EXPECT_NE(csv.find("fidelity_overrides"), std::string::npos);
    EXPECT_NE(csv.find("0-1:0.5"), std::string::npos);
}

TEST(Sweep, BandwidthOverrideCongestsOnlyTheNamedLink)
{
    SweepCell noisy;
    noisy.spec = {circuits::Family::QFT, 16, 4};
    noisy.link_fidelity = 0.95;
    noisy.target_fidelity = 0.99;

    SweepCell capped = noisy;
    capped.link_bandwidth_overrides = {{0, 1, 1.0}};

    const SweepRow fast = driver::run_cell(noisy);
    const SweepRow slow = driver::run_cell(capped);
    ASSERT_TRUE(fast.ok);
    ASSERT_TRUE(slow.ok) << slow.error;
    // Same compilation and EPR demand, longer schedule: the capped link
    // serializes its purification waves.
    EXPECT_EQ(slow.schedule.epr_raw_pairs, fast.schedule.epr_raw_pairs);
    EXPECT_GT(slow.schedule.makespan, fast.schedule.makespan);
}

TEST(Sweep, OverrideNamingAMissingNodeIsAFriendlyErrorRow)
{
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, 16, 4};
    bad.link_fidelity_overrides = {{0, 7, 0.9}}; // node 7 of a 4-node box
    const std::vector<SweepRow> rows = driver::run_sweep({bad}, {});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].ok);
    EXPECT_NE(rows[0].error.find("outside"), std::string::npos)
        << rows[0].error;
}

TEST(Sweep, OverrideOnANonEdgeIsRejectedNotSilentlyInert)
{
    // 0-2 is not an edge of a 4-node ring; an inert override would
    // still color the label/CSV/cache key while changing nothing.
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, 16, 4};
    bad.topology = hw::Topology::Ring;
    bad.link_bandwidth_overrides = {{0, 2, 2.0}};
    const std::vector<SweepRow> rows = driver::run_sweep({bad}, {});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].ok);
    EXPECT_NE(rows[0].error.find("not a physical link"),
              std::string::npos)
        << rows[0].error;
}

TEST(SweepGrid, OverridesApplyToEveryCell)
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT};
    grid.qubit_counts = {8};
    grid.node_counts = {2};
    grid.link_fidelities = {0.95, 0.9};
    grid.link_fidelity_overrides = {{0, 1, 0.93}};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 2u);
    for (const SweepCell& c : cells)
        EXPECT_EQ(c.link_fidelity_overrides,
                  grid.link_fidelity_overrides);
}

TEST(Sweep, GptpBaselineFactorsPopulateOnRequest)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 12, 2};
    cell.with_gptp = true;
    const SweepRow r = driver::run_cell(cell);
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(r.gptp_factors.has_value());
    EXPECT_GT(r.gptp_factors->improv_factor, 0.0);
    EXPECT_GT(r.gptp_factors->lat_dec_factor, 0.0);
    SweepCell plain = cell;
    plain.with_gptp = false;
    EXPECT_FALSE(driver::run_cell(plain).gptp_factors.has_value());
}

} // namespace
