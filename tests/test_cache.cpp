/**
 * @file
 * Tests for the persistent sweep-result cache (src/cache): stable
 * hashing, cell-key sensitivity to every field, JSON round trips, store
 * persistence/staleness, warm-run byte-identity with cold runs, and
 * shard-then-merge reproducing the unsharded sweep exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <unistd.h>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hash.hpp"
#include "cache/json.hpp"
#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "circuits/qasm_source.hpp"
#include "driver/sweep.hpp"
#include "support/log.hpp"

namespace {

namespace fs = std::filesystem;
using namespace autocomm;
using cache::CellKey;
using cache::Json;
using cache::ResultStore;
using driver::SweepCell;
using driver::SweepGrid;
using driver::SweepOptions;
using driver::SweepRow;

/** A unique empty temp directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string& tag)
    {
        path = fs::temp_directory_path() /
               ("autocomm-test-" + tag + "-" +
                std::to_string(::getpid()));
        fs::remove_all(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

// ------------------------------------------------------------- hashing

TEST(CacheHash, IsStableAndSensitive)
{
    const cache::Hash128 a = cache::hash128("hello");
    EXPECT_EQ(a, cache::hash128("hello"));
    EXPECT_NE(a, cache::hash128("hellp"));
    EXPECT_NE(a, cache::hash128("hell"));
    EXPECT_NE(cache::hash128(""), cache::hash128(std::string(1, '\0')));
    EXPECT_EQ(a.hex().size(), 32u);
    EXPECT_EQ(cache::hash128("").hex().size(), 32u);
}

TEST(CacheHash, PermutedInputsDiffer)
{
    // The two lanes must not collapse on reordered bytes.
    EXPECT_NE(cache::hash128("ab"), cache::hash128("ba"));
    EXPECT_NE(cache::hash128("abc"), cache::hash128("cba"));
}

// ------------------------------------------------------------ cell keys

TEST(CacheKey, EveryCellFieldChangesTheKey)
{
    SweepCell base;
    base.spec = {circuits::Family::QFT, 16, 4};

    const std::string h0 = cache::cell_key(base).hex();
    EXPECT_EQ(h0, cache::cell_key(base).hex()); // deterministic

    std::vector<SweepCell> mutants;
    auto mutate = [&](auto&& f) {
        SweepCell c = base;
        f(c);
        mutants.push_back(c);
    };
    mutate([](SweepCell& c) { c.spec.family = circuits::Family::BV; });
    mutate([](SweepCell& c) { c.spec.num_qubits = 17; });
    mutate([](SweepCell& c) { c.spec.num_nodes = 2; });
    mutate([](SweepCell& c) { c.seed = 2023; });
    mutate([](SweepCell& c) { c.shape = "4x4"; });
    mutate([](SweepCell& c) { c.topology = hw::Topology::Ring; });
    mutate([](SweepCell& c) { c.link_fidelity = 0.95; });
    mutate([](SweepCell& c) { c.target_fidelity = 0.99; });
    mutate([](SweepCell& c) { c.link_bandwidth = 2; });
    mutate([](SweepCell& c) {
        c.link_fidelity_overrides = {{0, 1, 0.9}};
    });
    mutate([](SweepCell& c) {
        c.link_bandwidth_overrides = {{0, 1, 2.0}};
    });
    mutate([](SweepCell& c) { c.options.name = "renamed"; });
    mutate([](SweepCell& c) {
        c.options.opts.aggregate.use_commutation = false;
    });
    mutate([](SweepCell& c) { c.options.opts.assign.allow_tp = false; });
    mutate([](SweepCell& c) {
        c.options.opts.schedule.epr_prefetch = false;
    });
    mutate([](SweepCell& c) {
        c.partitioner = partition::Mapper::Multilevel;
    });
    mutate([](SweepCell& c) {
        c.partitioner = partition::Mapper::MultilevelOee;
    });
    mutate([](SweepCell& c) { c.with_baseline = true; });
    mutate([](SweepCell& c) { c.with_gptp = true; });
    mutate([](SweepCell& c) { c.stats_only = true; });

    std::set<std::string> seen{h0};
    for (const SweepCell& m : mutants) {
        const std::string h = cache::cell_key(m).hex();
        EXPECT_TRUE(seen.insert(h).second)
            << "key not sensitive to a mutation near "
            << cache::cell_key(m).canonical;
    }
}

TEST(CacheKey, SaltChangesTheKey)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    EXPECT_NE(cache::cell_key(cell, "s1").hex(),
              cache::cell_key(cell, "s2").hex());
}

TEST(CacheKey, NearbyFidelityDoublesKeyDifferently)
{
    SweepCell a;
    a.spec = {circuits::Family::QFT, 16, 4};
    a.link_fidelity = 0.92;
    SweepCell b = a;
    b.link_fidelity = std::nextafter(0.92, 1.0); // 1 ulp; %g would merge
    EXPECT_NE(cache::cell_key(a).hex(), cache::cell_key(b).hex());
}

// The canonical strings are the on-disk contract: a store written by an
// older build must still hit, so any change to these literals strands
// every existing entry. Only the salt field may move (kCompilerSalt).
std::string
salted(const std::string& rest)
{
    return std::string("autocomm-cell-v2;salt=") + cache::kCompilerSalt +
           rest;
}

TEST(CacheKey, CanonicalStringsArePinned)
{
    SweepCell plain;
    plain.spec = {circuits::Family::QFT, 16, 4};
    EXPECT_EQ(cache::cell_key(plain).canonical,
              salted(";family=QFT;qubits=16;nodes=4;"
              "seed=2022;shape=;topology=all_to_all;link_fidelity=1;"
              "target_fidelity=0;link_bandwidth=0;fidelity_overrides=;"
              "bandwidth_overrides=;partitioner=oee;options=default{"
              "use_commutation=1,absorb_local_gates=1,comm_capacity=2,"
              "allow_tp=1,epr_prefetch=1,tp_fusion=1};baseline=0;gptp=0;"
              "stats_only=0"));

    SweepCell machine = plain;
    machine.shape = "4x4";
    machine.topology = hw::Topology::Grid;
    machine.link_fidelity = 0.95;
    machine.target_fidelity = 0.99;
    machine.link_bandwidth = 2;
    machine.link_fidelity_overrides = {{0, 1, 0.9}, {2, 3, 0.85}};
    machine.link_bandwidth_overrides = {{0, 2, 1.0}};
    machine.partitioner = partition::Mapper::Multilevel;
    EXPECT_EQ(cache::cell_key(machine).canonical,
              salted(";family=QFT;qubits=16;nodes=4;"
              "seed=2022;shape=4x4;topology=grid;"
              "link_fidelity=0.94999999999999996;"
              "target_fidelity=0.98999999999999999;link_bandwidth=2;"
              "fidelity_overrides=0-1:0.90000000000000002,"
              "2-3:0.84999999999999998;bandwidth_overrides=0-2:1;"
              "partitioner=multilevel;options=default{"
              "use_commutation=1,absorb_local_gates=1,comm_capacity=2,"
              "allow_tp=1,epr_prefetch=1,tp_fusion=1};baseline=0;gptp=0;"
              "stats_only=0"));
}

// ----------------------------------------------------------------- json

TEST(CacheJson, DumpParseIsAFixedPoint)
{
    Json doc = Json::object();
    doc.set("s", Json::string("line\nwith \"quotes\" and \\ and \x01"));
    doc.set("d", Json::number(0.1));
    doc.set("big", Json::number(18446744073709551615ULL));
    doc.set("neg", Json::number(-123456789LL));
    doc.set("t", Json::boolean(true));
    doc.set("n", Json::null());
    Json arr = Json::array();
    arr.push_back(Json::number(1.5e-300));
    arr.push_back(Json::string(""));
    doc.set("a", std::move(arr));

    const std::string once = doc.dump();
    const auto parsed = Json::parse(once);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(), once);
    // Exact scalar recovery.
    EXPECT_EQ(parsed->at("big").to_uint(), 18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(parsed->at("d").to_double(), 0.1);
    EXPECT_EQ(parsed->at("s").to_string(),
              "line\nwith \"quotes\" and \\ and \x01");
}

TEST(CacheJson, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(Json::parse("{", &err).has_value());
    EXPECT_FALSE(Json::parse("{}garbage", &err).has_value());
    EXPECT_FALSE(Json::parse("[1,,2]", &err).has_value());
    EXPECT_FALSE(Json::parse("\"\\u12\"", &err).has_value());
    EXPECT_FALSE(Json::parse("nul", &err).has_value());
    EXPECT_FALSE(Json::parse("", &err).has_value());
    EXPECT_TRUE(Json::parse("  42 ").has_value());
    // RFC 8259 numbers only: no leading '+', leading zeros, or bare
    // fraction points.
    for (const char* bad : {"+1", "01", ".5", "1.", "-", "1e", "1e+",
                            "-.5", "[01]"})
        EXPECT_FALSE(Json::parse(bad, &err).has_value()) << bad;
    // Grammatical but out of range: an error, never a saturated value.
    const auto huge = Json::parse("1e999");
    ASSERT_TRUE(huge.has_value());
    EXPECT_THROW(huge->to_double(), support::UserError);
    EXPECT_THROW(Json::parse("18446744073709551616")->to_uint(),
                 support::UserError);
    EXPECT_THROW(Json::parse("-1")->to_uint(), support::UserError);
    EXPECT_THROW(Json::parse("1.5")->to_int(), support::UserError);
}

TEST(CacheJson, EdgeNumbersRoundTrip)
{
    for (const char* lit : {"-0", "1e+20", "1.5e-300",
                            "18446744073709551615", "0", "-12.5E-3"}) {
        const auto doc = Json::parse(lit);
        ASSERT_TRUE(doc.has_value()) << lit;
        EXPECT_EQ(doc->dump(), lit);
    }
    EXPECT_TRUE(std::signbit(Json::parse("-0")->to_double()));
    EXPECT_EQ(Json::parse("1e+20")->to_double(), 1e20);
    EXPECT_EQ(Json::parse("1.5e-300")->to_double(), 1.5e-300);
    EXPECT_EQ(Json::parse("18446744073709551615")->to_uint(),
              18446744073709551615ULL);
}

TEST(CacheJson, NestingIsBoundedWithoutRecursingPastIt)
{
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(Json::parse(nested(128)).has_value());
    std::string err;
    EXPECT_FALSE(Json::parse(nested(129), &err).has_value());
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
    // Far deeper than any stack would survive unbounded recursion.
    EXPECT_FALSE(Json::parse(std::string(1000000, '['), &err).has_value());
    const std::string objects(1000000, '{');
    cache::JsonReader r(objects);
    EXPECT_THROW(r.skip(), support::UserError);
}

TEST(CacheJson, ReaderDecodesInPlaceAndSpansRawValues)
{
    const std::string text =
        R"( {"b":[1,2,3],"skip":{"x":[null,true,"\u00e9"]},)"
        R"("k\"ey":"v","a":-7} )";
    cache::JsonReader r(text);
    std::vector<unsigned long long> b;
    std::string raw;
    std::string escaped_key;
    long long a = 0;
    r.read_object([&](std::string_view key) {
        if (key == "b")
            r.read_array([&] { b.push_back(r.read_uint()); });
        else if (key == "skip")
            raw = std::string(r.raw());
        else if (key == "a")
            a = r.read_int();
        else {
            escaped_key = std::string(key);
            EXPECT_EQ(r.read_string(), "v");
        }
    });
    r.finish();
    EXPECT_EQ(b, (std::vector<unsigned long long>{1, 2, 3}));
    EXPECT_EQ(raw, R"({"x":[null,true,"\u00e9"]})");
    EXPECT_EQ(escaped_key, "k\"ey");
    EXPECT_EQ(a, -7);

    cache::JsonReader wrong("{\"a\":1}");
    EXPECT_THROW(wrong.read_array([] {}), support::UserError);
}

// ------------------------------------------------------- row round trip

TEST(CacheSerialize, NoisyBaselineRowRoundTripsByteIdentically)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 4};
    cell.topology = hw::Topology::Ring;
    cell.link_fidelity = 0.95;
    cell.target_fidelity = 0.99;
    cell.link_bandwidth = 2;
    cell.with_baseline = true;
    const SweepRow row = driver::run_cell(cell);
    ASSERT_TRUE(row.ok) << row.error;

    const std::string dumped = cache::row_to_json(row).dump();
    const SweepRow back = cache::row_from_text(dumped, cell);

    EXPECT_EQ(driver::sweep_csv({row}).to_string(),
              driver::sweep_csv({back}).to_string());
    // Beyond the CSV: the Fig. 15 distribution and the ledger survive.
    EXPECT_EQ(back.metrics.per_comm_cx, row.metrics.per_comm_cx);
    EXPECT_EQ(back.metrics.block_sizes, row.metrics.block_sizes);
    EXPECT_EQ(back.schedule.ledger.raw_total(),
              row.schedule.ledger.raw_total());
    EXPECT_EQ(back.schedule.ledger.busiest(),
              row.schedule.ledger.busiest());
    EXPECT_DOUBLE_EQ(back.schedule.program_fidelity(),
                     row.schedule.program_fidelity());
    ASSERT_TRUE(back.factors.has_value());
    EXPECT_DOUBLE_EQ(back.factors->improv_factor,
                     row.factors->improv_factor);
}

TEST(CacheSerialize, ErrorRowRoundTrips)
{
    SweepCell bad;
    bad.spec = {circuits::Family::QFT, 16, 2};
    bad.shape = "2x4"; // insufficient capacity
    const std::vector<SweepRow> rows = driver::run_sweep({bad}, {});
    ASSERT_FALSE(rows[0].ok);

    const SweepRow back =
        cache::row_from_text(cache::row_to_json(rows[0]).dump(), bad);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, rows[0].error);
}

// ---------------------------------------------------------------- store

SweepGrid
small_grid()
{
    SweepGrid grid;
    grid.families = {circuits::Family::QFT, circuits::Family::BV};
    grid.qubit_counts = {10, 12};
    grid.node_counts = {2};
    grid.link_fidelities = {1.0, 0.95};
    grid.option_sets = {driver::OptionSet{},
                        *driver::find_option_set("sparse")};
    return grid;
}

TEST(CacheStore, WarmRunHitsEverythingAndMatchesColdRunByteIdentically)
{
    TempDir dir("warm");
    const std::vector<SweepCell> cells = small_grid().cells();

    std::string cold_csv;
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.num_threads = 4;
        opts.store = &store;
        cold_csv = driver::sweep_csv(driver::run_sweep(cells, opts))
                       .to_string();
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, cells.size());
        EXPECT_EQ(store.stats().inserted, cells.size());
        store.flush();
    }
    {
        // Warm, different thread count: every cell must hit and the CSV
        // must be byte-identical to the cold run.
        ResultStore store(dir.str());
        EXPECT_EQ(store.stats().loaded, cells.size());
        SweepOptions opts;
        opts.num_threads = 1;
        opts.store = &store;
        const std::string warm_csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        EXPECT_EQ(store.stats().hits, cells.size());
        EXPECT_EQ(store.stats().misses, 0u);
        EXPECT_EQ(warm_csv, cold_csv);
    }
}

TEST(CacheStore, PartiallyWarmSweepIsThreadCountInvariant)
{
    // Seed the store with only half of the grid, then run the full grid
    // at several thread counts. Warm cells skip the stage pipeline
    // entirely while cold cells flow through it concurrently; the CSV
    // must be byte-identical to a fully cold serial run regardless.
    const std::vector<SweepCell> cells = small_grid().cells();
    ASSERT_GE(cells.size(), 4u);
    const std::vector<SweepCell> half(cells.begin(),
                                      cells.begin() +
                                          static_cast<long>(cells.size() / 2));

    SweepOptions cold;
    cold.num_threads = 1;
    const std::string cold_csv =
        driver::sweep_csv(driver::run_sweep(cells, cold)).to_string();

    for (const std::size_t threads : {1u, 2u, 8u}) {
        TempDir dir("halfwarm-" + std::to_string(threads));
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.num_threads = threads;
        opts.store = &store;
        driver::run_sweep(half, opts);
        const std::string csv =
            driver::sweep_csv(driver::run_sweep(cells, opts)).to_string();
        EXPECT_EQ(store.stats().hits, half.size());
        EXPECT_EQ(csv, cold_csv) << threads << " threads";
    }
}

TEST(CacheStore, SaltBumpInvalidatesEveryEntry)
{
    TempDir dir("salt");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str(), "salt-A");
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
    }
    {
        // New salt: nothing loads, everything misses and recompiles.
        ResultStore store(dir.str(), "salt-B");
        EXPECT_EQ(store.stats().loaded, 0u);
        EXPECT_EQ(store.stats().stale, cells.size());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, cells.size());
        store.flush();
    }
    {
        // The original salt still sees its own entries.
        ResultStore store(dir.str(), "salt-A");
        EXPECT_EQ(store.stats().loaded, cells.size());
    }
}

TEST(CacheStore, ShardsPartitionTheGridAndMergeReproducesUnsharded)
{
    const std::vector<SweepCell> cells = small_grid().cells();
    const std::string unsharded =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();

    const driver::ShardSpec s0{0, 2};
    const driver::ShardSpec s1{1, 2};
    const std::vector<SweepCell> part0 = cache::shard_filter(cells, s0);
    const std::vector<SweepCell> part1 = cache::shard_filter(cells, s1);
    EXPECT_EQ(part0.size() + part1.size(), cells.size());
    EXPECT_FALSE(part0.empty());
    EXPECT_FALSE(part1.empty());

    TempDir dir0("shard0");
    TempDir dir1("shard1");
    for (const auto& [part, dir] :
         {std::make_pair(&part0, &dir0), std::make_pair(&part1, &dir1)}) {
        ResultStore store(dir->str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(*part, opts);
        store.flush();
    }

    // Merge shard 1 into shard 0's store and assemble the full grid.
    ResultStore merged(dir0.str());
    EXPECT_EQ(merged.merge_from(dir1.str()), part1.size());
    merged.compact();
    const std::vector<SweepRow> rows = cache::assemble(cells, merged);
    EXPECT_EQ(driver::sweep_csv(rows).to_string(), unsharded);

    // Compaction leaves exactly one canonical segment; reopening it
    // still serves the full grid.
    std::size_t segments = 0;
    for (const auto& e : fs::directory_iterator(dir0.path))
        segments += e.path().extension() == ".jsonl" ? 1 : 0;
    EXPECT_EQ(segments, 1u);
    ResultStore reopened(dir0.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size());
}

TEST(CacheStore, AssembleThrowsOnMissingCells)
{
    TempDir dir("missing");
    ResultStore store(dir.str());
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    EXPECT_THROW(cache::assemble({cell}, store), support::UserError);
}

TEST(CacheStore, CorruptLinesAreDroppedNotFatal)
{
    TempDir dir("corrupt");
    {
        ResultStore store(dir.str());
        SweepCell cell;
        cell.spec = {circuits::Family::QFT, 10, 2};
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    {
        std::ofstream out(dir.path / "seg-garbage.jsonl",
                          std::ios::app);
        out << "{not json at all\n";
        out << "{\"key\":\"zz\",\"salt\":\"mismatch\"}\n";
    }
    ResultStore store(dir.str());
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.stats().stale, 2u);
}

TEST(CacheStore, CorruptEntrySelfHealConvergesOnDisk)
{
    TempDir dir("heal");
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    // Corrupt the stored row in place, keeping the line valid JSON so
    // the damage is only detected at lookup (row_from_text) time.
    for (const auto& seg : fs::directory_iterator(dir.path)) {
        std::ifstream in(seg.path());
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        const std::size_t at = text.find("\"ok\":true");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 9, "\"ok\":1234");
        std::ofstream(seg.path(), std::ios::trunc) << text;
    }
    {
        // The corrupt entry is dropped at lookup, recompiled, and the
        // flush retires the corrupt segment for good.
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        support::set_log_level(support::LogLevel::Quiet);
        driver::run_sweep({cell}, opts);
        support::set_log_level(support::LogLevel::Warn);
        EXPECT_EQ(store.stats().misses, 1u);
        store.flush();
    }
    {
        // Converged: one clean segment, a plain hit, no staleness.
        std::size_t segments = 0;
        for (const auto& e : fs::directory_iterator(dir.path))
            segments += e.path().extension() == ".jsonl" ? 1 : 0;
        EXPECT_EQ(segments, 1u);
        ResultStore store(dir.str());
        EXPECT_EQ(store.stats().loaded, 1u);
        const auto row = store.lookup(cache::cell_key(cell), cell);
        ASSERT_TRUE(row.has_value());
        EXPECT_TRUE(row->ok);
        EXPECT_EQ(store.stats().stale, 0u);
    }
}

TEST(CacheStore, HashCollisionIsServedAsAMiss)
{
    TempDir dir("collide");
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    const CellKey key = cache::cell_key(cell);
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    // Forge an entry whose key hash matches but whose canonical string
    // does not (as a real 128-bit collision would look).
    CellKey forged = key;
    forged.canonical += ";forged=1";
    ResultStore store(dir.str());
    support::set_log_level(support::LogLevel::Quiet);
    const auto row = store.lookup(forged, cell);
    support::set_log_level(support::LogLevel::Warn);
    EXPECT_FALSE(row.has_value());
    EXPECT_EQ(store.stats().misses, 1u);
}

// ---------------------------------------------- shard spec / overrides

// ------------------------------------------------------------------- gc

/** All *.jsonl files in @p dir, sorted by name. */
std::vector<std::string>
segment_names(const std::string& dir)
{
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".jsonl")
            names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

TEST(CacheGc, FreshEntriesSurviveAndTheStoreCompacts)
{
    TempDir dir("gc-fresh");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        // Just-compiled rows are far younger than a day: nothing drops,
        // and gc leaves the store compacted to the canonical segment.
        EXPECT_EQ(store.gc(1.0), 0u);
        EXPECT_EQ(store.size(), cells.size());
    }
    EXPECT_EQ(segment_names(dir.str()),
              std::vector<std::string>{"store.jsonl"});
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size());
}

TEST(CacheGc, PreTimestampEntriesCountAsExpired)
{
    TempDir dir("gc-legacy");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        store.compact();
    }
    // Strip the "ts" fields, simulating a store written before
    // timestamps existed.
    const fs::path canonical = dir.path / "store.jsonl";
    std::string text;
    {
        std::ifstream in(canonical);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    for (std::size_t at; (at = text.find("\"ts\":")) != std::string::npos;)
        text.erase(at, text.find(',', at) + 1 - at);
    {
        std::ofstream out(canonical, std::ios::trunc);
        out << text;
    }
    ResultStore store(dir.str());
    ASSERT_EQ(store.stats().loaded, cells.size()); // still readable
    // Even an allowance reaching past the epoch expires timestamp-less
    // entries: their age is unknown, so a GC pass retires them.
    EXPECT_EQ(store.gc(50000.0), cells.size());
    EXPECT_EQ(store.size(), 0u);
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, 0u);
}

TEST(CacheGc, WarmHitOutlivesUntouchedEntryOfTheSameAge)
{
    TempDir dir("gc-lasthit");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.compact();
    }
    // Backdate every entry's compile time by ten days; all of them are
    // now past a five-day allowance.
    const fs::path canonical = dir.path / "store.jsonl";
    std::string text;
    {
        std::ifstream in(canonical);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    const long long old_ts =
        static_cast<long long>(std::time(nullptr)) - 10ll * 86400ll;
    for (std::size_t at = 0;
         (at = text.find("\"ts\":", at)) != std::string::npos;) {
        const std::size_t end = text.find(',', at);
        text.replace(at, end - at, "\"ts\":" + std::to_string(old_ts));
        at += 5;
    }
    {
        std::ofstream out(canonical, std::ios::trunc);
        out << text;
    }

    ResultStore store(dir.str());
    ASSERT_EQ(store.stats().loaded, cells.size());
    // Serve exactly one cell from the store: its last-hit time is now,
    // so a five-day pass keeps it while retiring every same-age sibling.
    const SweepCell& hot = cells.front();
    ASSERT_TRUE(store.lookup(cache::cell_key(hot), hot).has_value());
    EXPECT_EQ(store.gc(5.0), cells.size() - 1);
    EXPECT_EQ(store.size(), 1u);

    // The refreshed last-hit time reached disk with gc's compaction, so
    // a fresh open still serves the hot cell.
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_TRUE(reopened.lookup(cache::cell_key(hot), hot).has_value());
}

TEST(CacheGc, StaleSaltLinesLeaveTheDiskOnGc)
{
    TempDir dir("gc-stale");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str(), "salt-A");
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
    }
    {
        // Opened under a bumped salt every salt-A line is stale; gc
        // compacts the (empty) live view, so the old segments — and the
        // stale lines in them — are deleted, not just skipped.
        ResultStore store(dir.str(), "salt-B");
        EXPECT_EQ(store.stats().stale, cells.size());
        EXPECT_EQ(store.gc(10000.0), 0u); // nothing live to expire
    }
    ResultStore old_salt(dir.str(), "salt-A");
    EXPECT_EQ(old_salt.stats().loaded, 0u);
    EXPECT_EQ(old_salt.stats().stale, 0u);
}

TEST(CacheGc, NegativeAgeIsRejected)
{
    TempDir dir("gc-neg");
    ResultStore store(dir.str());
    EXPECT_THROW(store.gc(-1.0), support::UserError);
}

TEST(CacheGc, GcToBytesGenerousBudgetKeepsAllAndCompacts)
{
    TempDir dir("gc-bytes-keep");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        // A budget far above the store's footprint evicts nothing, but
        // the pass still compacts down to the canonical segment.
        EXPECT_EQ(store.gc_to_bytes(std::size_t{1} << 30), 0u);
        EXPECT_EQ(store.size(), cells.size());
    }
    EXPECT_EQ(segment_names(dir.str()),
              std::vector<std::string>{"store.jsonl"});
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size());
}

TEST(CacheGc, GcToBytesZeroBudgetDropsEverything)
{
    TempDir dir("gc-bytes-zero");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.flush();
        EXPECT_EQ(store.gc_to_bytes(0), cells.size());
        EXPECT_EQ(store.size(), 0u);
    }
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, 0u);
}

TEST(CacheGc, GcToBytesEvictsColdestEntriesFirst)
{
    TempDir dir("gc-bytes-cold");
    const std::vector<SweepCell> cells = small_grid().cells();
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(cells, opts);
        store.compact();
    }
    // Backdate every compile timestamp by ten days so all entries share
    // one old gc basis; a fresh lookup below separates the hot one.
    const fs::path canonical = dir.path / "store.jsonl";
    std::string text;
    {
        std::ifstream in(canonical);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    const long long old_ts =
        static_cast<long long>(std::time(nullptr)) - 10ll * 86400ll;
    for (std::size_t at = 0;
         (at = text.find("\"ts\":", at)) != std::string::npos;) {
        const std::size_t end = text.find(',', at);
        text.replace(at, end - at, "\"ts\":" + std::to_string(old_ts));
        at += 5;
    }
    {
        std::ofstream out(canonical, std::ios::trunc);
        out << text;
    }

    ResultStore store(dir.str());
    ASSERT_EQ(store.stats().loaded, cells.size());
    // Touching one cell refreshes its last-hit time: under a budget that
    // forces a partial eviction, the untouched ten-day-old siblings go
    // first and the hot entry is the last candidate standing.
    const SweepCell& hot = cells.front();
    ASSERT_TRUE(store.lookup(cache::cell_key(hot), hot).has_value());
    const std::size_t budget =
        static_cast<std::size_t>(fs::file_size(canonical)) / 2;
    const std::size_t dropped = store.gc_to_bytes(budget);
    EXPECT_GE(dropped, 1u);
    EXPECT_LT(dropped, cells.size());
    EXPECT_EQ(store.size(), cells.size() - dropped);
    EXPECT_TRUE(store.lookup(cache::cell_key(hot), hot).has_value());

    // The eviction compacted to disk, so a fresh open sees exactly the
    // survivors — the hot cell among them — under the byte budget.
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().loaded, cells.size() - dropped);
    EXPECT_TRUE(reopened.lookup(cache::cell_key(hot), hot).has_value());
    EXPECT_LE(fs::file_size(canonical), budget);
}

// ------------------------------------------------- external QASM cells

/** Two small distinct OpenQASM programs over one byte of difference in
 * the first (h vs x on q[0]). */
constexpr const char* kQasmA = "OPENQASM 2.0;\n"
                               "qreg q[6];\n"
                               "h q[0];\n"
                               "cx q[0], q[1];\n"
                               "cx q[2], q[3];\n"
                               "cx q[4], q[5];\n";
constexpr const char* kQasmB = "OPENQASM 2.0;\n"
                               "qreg q[6];\n"
                               "x q[0];\n"
                               "cx q[0], q[1];\n"
                               "cx q[2], q[3];\n"
                               "cx q[4], q[5];\n";

void
write_file(const fs::path& p, const std::string& text)
{
    fs::create_directories(p.parent_path());
    std::ofstream(p, std::ios::trunc) << text;
}

TEST(CacheQasm, CanonicalStringIsPinned)
{
    TempDir dir("qasm-pin");
    const fs::path file = dir.path / "bench.qasm";
    write_file(file, kQasmA);
    SweepCell cell;
    cell.spec =
        circuits::spec_for(circuits::qasm_family(file.string()), 0, 2);
    EXPECT_EQ(cache::cell_key(cell).canonical,
              salted(";family=QASM;qubits=6;nodes=2;"
              "seed=2022;shape=;topology=all_to_all;link_fidelity=1;"
              "target_fidelity=0;link_bandwidth=0;fidelity_overrides=;"
              "bandwidth_overrides=;partitioner=oee;options=default{"
              "use_commutation=1,absorb_local_gates=1,comm_capacity=2,"
              "allow_tp=1,epr_prefetch=1,tp_fusion=1};baseline=0;gptp=0;"
              "stats_only=0;qasm=1218ca87e4bc0dce339a3f681dc565bf"));
}

TEST(CacheQasm, SameFileHitsWarmAndAOneByteEditInvalidates)
{
    TempDir dir("qasm-edit");
    const fs::path file = dir.path / "bench.qasm";
    write_file(file, kQasmA);

    SweepCell cell;
    cell.spec =
        circuits::spec_for(circuits::qasm_family(file.string()), 0, 2);
    ASSERT_EQ(cell.spec.family, circuits::Family::QASM);
    ASSERT_EQ(cell.spec.num_qubits, 6);
    EXPECT_NE(cell.label().find("QASM:bench"), std::string::npos);

    const CellKey key_a = cache::cell_key(cell);
    const fs::path store_dir = dir.path / "store";

    std::string cold_csv;
    {
        ResultStore store(store_dir.string());
        SweepOptions opts;
        opts.store = &store;
        cold_csv =
            driver::sweep_csv(driver::run_sweep({cell}, opts)).to_string();
        EXPECT_EQ(store.stats().misses, 1u);
        store.flush();
    }
    {
        // Same file content: a warm run hits and reproduces the CSV
        // byte-identically.
        ResultStore store(store_dir.string());
        SweepOptions opts;
        opts.store = &store;
        const std::string warm_csv =
            driver::sweep_csv(driver::run_sweep({cell}, opts)).to_string();
        EXPECT_EQ(store.stats().hits, 1u);
        EXPECT_EQ(store.stats().misses, 0u);
        EXPECT_EQ(warm_csv, cold_csv);
    }

    // One byte changes (h -> x): the content hash moves the key, so the
    // unchanged cell spec now misses and recompiles.
    write_file(file, kQasmB);
    EXPECT_NE(cache::cell_key(cell).hex(), key_a.hex());
    {
        ResultStore store(store_dir.string());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, 1u);
    }
}

TEST(CacheQasm, QasmDirShardsMergeToTheUnshardedCsv)
{
    TempDir dir("qasm-shard");
    write_file(dir.path / "circuits" / "a.qasm", kQasmA);
    write_file(dir.path / "circuits" / "b.qasm", kQasmB);

    SweepGrid grid;
    grid.families =
        circuits::qasm_dir_families((dir.path / "circuits").string());
    ASSERT_EQ(grid.families.size(), 2u);
    grid.qubit_counts = {6};
    grid.node_counts = {2};
    grid.link_fidelities = {1.0, 0.95};
    const std::vector<SweepCell> cells = grid.cells();
    ASSERT_EQ(cells.size(), 4u);

    const std::string unsharded =
        driver::sweep_csv(driver::run_sweep(cells, {})).to_string();

    const std::vector<SweepCell> part0 =
        cache::shard_filter(cells, driver::ShardSpec{0, 2});
    const std::vector<SweepCell> part1 =
        cache::shard_filter(cells, driver::ShardSpec{1, 2});
    EXPECT_EQ(part0.size() + part1.size(), cells.size());

    TempDir dir0("qasm-shard0");
    TempDir dir1("qasm-shard1");
    for (const auto& [part, d] :
         {std::make_pair(&part0, &dir0), std::make_pair(&part1, &dir1)}) {
        ResultStore store(d->str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep(*part, opts);
        store.flush();
    }

    ResultStore merged(dir0.str());
    EXPECT_EQ(merged.merge_from(dir1.str()), part1.size());
    const std::vector<SweepRow> rows = cache::assemble(cells, merged);
    EXPECT_EQ(driver::sweep_csv(rows).to_string(), unsharded);
}

TEST(CacheShard, FilterIsDeterministicAndSaltDependent)
{
    const std::vector<SweepCell> cells = small_grid().cells();
    const driver::ShardSpec s0{0, 3};
    EXPECT_EQ(cache::shard_filter(cells, s0).size(),
              cache::shard_filter(cells, s0).size());
    // Shards over all residues cover every cell exactly once.
    std::size_t covered = 0;
    for (int i = 0; i < 3; ++i)
        covered +=
            cache::shard_filter(cells, driver::ShardSpec{i, 3}).size();
    EXPECT_EQ(covered, cells.size());
    // One shard of one is the identity.
    EXPECT_EQ(cache::shard_filter(cells, driver::ShardSpec{0, 1}).size(),
              cells.size());
    // Bad specs fail as UserError at the membership test, never as a
    // division crash.
    const CellKey key = cache::cell_key(cells.front());
    EXPECT_THROW(cache::in_shard(key, driver::ShardSpec{0, 0}),
                 support::UserError);
    EXPECT_THROW(cache::in_shard(key, driver::ShardSpec{3, 2}),
                 support::UserError);
}

// ------------------------------------------------- on-disk compatibility

/** The whole of @p path as text. */
std::string
read_text(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** The noisy baseline cell of kTreeWriterLines: Ferrari factors and a
 * non-empty EPR ledger. */
SweepCell
compat_noisy_cell()
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 8, 2};
    cell.topology = hw::Topology::Ring;
    cell.link_fidelity = 0.95;
    cell.target_fidelity = 0.99;
    cell.link_bandwidth = 2;
    cell.with_baseline = true;
    return cell;
}

/** The error cell of kTreeWriterLines (insufficient capacity). */
SweepCell
compat_error_cell()
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 16, 2};
    cell.shape = "2x4";
    return cell;
}

// Two store lines exactly as the earlier tree-based store wrote them
// under salt s3: a run_sweep of the two cells above, then a compact()
// after one lookup of the error cell, so that line also carries "hit".
// A compiler-salt bump must regenerate them.
const char* const kTreeWriterLines = R"line({"key":"24fa6a602b64da5d3f1e263709454449","salt":"s3","label":"QFT-16-2@2x4/default","canonical":"autocomm-cell-v2;salt=s3;family=QFT;qubits=16;nodes=2;seed=2022;shape=2x4;topology=all_to_all;link_fidelity=1;target_fidelity=0;link_bandwidth=0;fidelity_overrides=;bandwidth_overrides=;partitioner=oee;options=default{use_commutation=1,absorb_local_gates=1,comm_capacity=2,allow_tp=1,epr_prefetch=1,tp_fusion=1};baseline=0;gptp=0;stats_only=0","ts":1792257287,"hit":1792257287,"row":{"ok":false,"error":"machine capacity 8 cannot hold 16 qubits (shape has 2 nodes); add nodes or enlarge them","stats":{"total_gates":0,"single_qubit_gates":0,"two_qubit_gates":0,"cx_gates":0,"three_qubit_gates":0,"measurements":0,"depth":0},"remote_cx":0,"metrics":{"remote_gates":0,"num_blocks":0,"total_comms":0,"tp_comms":0,"cat_comms":0,"peak_rem_cx":0,"per_comm_cx":[],"block_sizes":[]},"schedule":{"makespan":0,"epr_pairs":0,"teleports":0,"fused_links":0,"hops_total":0,"epr_raw_pairs":0,"purify_rounds":0,"detours":0,"ledger":{"per_link":[],"raw_per_link":[],"total":0,"raw_total":0,"log_fidelity":0}},"factors":null,"gptp_factors":null}}
{"key":"30cbd29cafc8eb8b6e3c446de226c1f2","salt":"s3","label":"QFT-8-2+ring~f0.95~t0.99~b2/default","canonical":"autocomm-cell-v2;salt=s3;family=QFT;qubits=8;nodes=2;seed=2022;shape=;topology=ring;link_fidelity=0.94999999999999996;target_fidelity=0.98999999999999999;link_bandwidth=2;fidelity_overrides=;bandwidth_overrides=;partitioner=oee;options=default{use_commutation=1,absorb_local_gates=1,comm_capacity=2,allow_tp=1,epr_prefetch=1,tp_fusion=1};baseline=1;gptp=0;stats_only=0","ts":1792257287,"row":{"ok":true,"error":"","stats":{"total_gates":148,"single_qubit_gates":92,"two_qubit_gates":56,"cx_gates":56,"three_qubit_gates":0,"measurements":0,"depth":53},"remote_cx":32,"metrics":{"remote_gates":32,"num_blocks":4,"total_comms":8,"tp_comms":8,"cat_comms":0,"peak_rem_cx":4,"per_comm_cx":[4,4,4,4,4,4,4,4],"block_sizes":[8,8,8,8]},"schedule":{"makespan":1885.2999999999997,"epr_pairs":8,"teleports":8,"fused_links":0,"hops_total":8,"epr_raw_pairs":256,"purify_rounds":40,"detours":0,"ledger":{"per_link":[[0,1,8]],"raw_per_link":[[0,1,256]],"total":8,"raw_total":256,"log_fidelity":-0.060613782958108833}},"factors":{"improv":4,"lat_dec":3.9489736381477769},"gptp_factors":null}}
)line";

TEST(CacheCompat, TreeWriterLinesHitAndCompactByteIdentically)
{
    const std::string text = kTreeWriterLines;
    TempDir dir("compat");
    fs::create_directories(dir.path);
    std::ofstream(dir.path / "seg-tree.jsonl", std::ios::binary) << text;
    {
        // No lookups before compact(): every line is rewritten verbatim.
        ResultStore store(dir.str());
        EXPECT_EQ(store.stats().loaded, 2u);
        EXPECT_EQ(store.stats().stale, 0u);
        store.compact();
    }
    EXPECT_EQ(read_text(dir.path / "store.jsonl"), text);
    EXPECT_FALSE(fs::exists(dir.path / "seg-tree.jsonl"));

    ResultStore store(dir.str());
    // run_cell throws on a cell that cannot be built; run_sweep turns
    // that into the error row the store holds.
    const SweepCell noisy = compat_noisy_cell();
    const SweepCell bad = compat_error_cell();
    const std::vector<std::pair<SweepCell, SweepRow>> fresh = {
        {noisy, driver::run_cell(noisy)},
        {bad, driver::run_sweep({bad}, {}).front()}};
    for (const auto& [cell, want] : fresh) {
        const auto got = store.lookup(cache::cell_key(cell), cell);
        ASSERT_TRUE(got.has_value()) << cell.label();
        EXPECT_EQ(driver::sweep_csv({*got}).to_string(),
                  driver::sweep_csv({want}).to_string());
        EXPECT_EQ(got->error, want.error);
        EXPECT_EQ(got->metrics.per_comm_cx, want.metrics.per_comm_cx);
        EXPECT_EQ(got->metrics.block_sizes, want.metrics.block_sizes);
        EXPECT_EQ(got->schedule.ledger.per_link(),
                  want.schedule.ledger.per_link());
        EXPECT_EQ(got->schedule.ledger.raw_per_link(),
                  want.schedule.ledger.raw_per_link());
        EXPECT_EQ(got->schedule.ledger.log_fidelity(),
                  want.schedule.ledger.log_fidelity());
        EXPECT_EQ(got->factors.has_value(), want.factors.has_value());
    }
    ASSERT_TRUE(fresh[0].second.factors.has_value());
    EXPECT_FALSE(fresh[0].second.schedule.ledger.per_link().empty());
    EXPECT_EQ(store.stats().hits, 2u);
}

// ------------------------------------------------------ reader hardening

/** The one line of a store seeded with @p cell, minus its newline. */
std::string
seed_one_line(const TempDir& dir, const SweepCell& cell,
              fs::path* segment)
{
    {
        ResultStore store(dir.str());
        SweepOptions opts;
        opts.store = &store;
        driver::run_sweep({cell}, opts);
        store.flush();
    }
    const std::vector<std::string> names = segment_names(dir.str());
    EXPECT_EQ(names.size(), 1u);
    *segment = dir.path / names.front();
    std::string line = read_text(*segment);
    EXPECT_EQ(line.back(), '\n');
    line.pop_back();
    return line;
}

/** @p line with its "ts" compile stamp zeroed; the stamp goes to @p ts. */
std::string
mask_ts(std::string line, long long* ts)
{
    const std::size_t at = line.find("\"ts\":");
    EXPECT_NE(at, std::string::npos);
    const std::size_t from = at + 5;
    const std::size_t end = line.find(',', from);
    *ts = std::stoll(line.substr(from, end - from));
    return line.replace(from, end - from, "0");
}

/** @p line with @p text inserted right after the row's opening brace. */
std::string
into_row(std::string line, const std::string& text)
{
    const std::size_t at = line.find("\"row\":{");
    EXPECT_NE(at, std::string::npos);
    return line.insert(at + 7, text);
}

TEST(CacheStore, DamagedLinesAreNeverServedAndTheStoreConverges)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    const std::string clean_csv =
        driver::sweep_csv(driver::run_sweep({cell}, {})).to_string();

    // The row sits at depth 2, so 127 more levels nest the line 129 deep.
    const std::string deep =
        std::string(127, '[') + std::string(127, ']');
    const std::vector<
        std::pair<const char*, std::function<std::string(std::string)>>>
        damages = {
            {"nesting-129",
             [&](std::string line) {
                 return into_row(std::move(line), "\"deep\":" + deep + ",") +
                        "\n";
             }},
            {"cut-mid-row",
             [](std::string line) {
                 const std::size_t row = line.find("\"row\":");
                 return line.substr(0, row + (line.size() - row) / 2);
             }},
            {"count-out-of-range",
             [](std::string line) {
                 const std::string field = "\"total_gates\":";
                 const std::size_t at = line.find(field) + field.size();
                 const std::size_t end = line.find(',', at);
                 return line.replace(at, end - at, "18446744073709551616") +
                        "\n";
             }},
            {"no-ledger",
             [](std::string line) {
                 const std::size_t at = line.find(",\"ledger\":{");
                 const std::size_t end = line.find('}', at);
                 return line.erase(at, end + 1 - at) + "\n";
             }},
        };

    for (const auto& [name, damage] : damages) {
        SCOPED_TRACE(name);
        TempDir dir(std::string("damaged-") + name);
        fs::path segment;
        const std::string line = seed_one_line(dir, cell, &segment);
        std::ofstream(segment, std::ios::binary | std::ios::trunc)
            << damage(line);
        {
            // Dropped at open or on the corrupt-entry path at lookup:
            // either way recompiled, never served.
            ResultStore store(dir.str());
            SweepOptions opts;
            opts.store = &store;
            support::set_log_level(support::LogLevel::Quiet);
            const std::string csv =
                driver::sweep_csv(driver::run_sweep({cell}, opts))
                    .to_string();
            support::set_log_level(support::LogLevel::Warn);
            EXPECT_EQ(store.stats().hits, 0u);
            EXPECT_EQ(store.stats().misses, 1u);
            EXPECT_EQ(store.stats().stale, 1u);
            EXPECT_EQ(csv, clean_csv);
            store.flush();
        }
        // Converged: one clean segment holding the original line. The
        // recompile stamps its own time, which may fall a second after
        // the seeded line's.
        const std::vector<std::string> names = segment_names(dir.str());
        ASSERT_EQ(names.size(), 1u);
        long long seeded_ts = 0;
        long long healed_ts = 0;
        EXPECT_EQ(mask_ts(read_text(dir.path / names.front()), &healed_ts),
                  mask_ts(line + "\n", &seeded_ts));
        EXPECT_GE(healed_ts, seeded_ts);
        ResultStore store(dir.str());
        EXPECT_EQ(store.stats().stale, 0u);
        EXPECT_TRUE(store.lookup(cache::cell_key(cell), cell).has_value());
    }
}

TEST(CacheStore, UnknownMembersAreSkippedAndTheRowStillHits)
{
    SweepCell cell;
    cell.spec = {circuits::Family::QFT, 10, 2};
    const std::string clean_csv =
        driver::sweep_csv(driver::run_sweep({cell}, {})).to_string();
    TempDir dir("unknown");
    fs::path segment;
    std::string line = seed_one_line(dir, cell, &segment);
    // Unknown members of every type, in the envelope and in the row; the
    // row one nests the line exactly 128 deep, the bound itself.
    line.insert(1, "\"future\":{\"a\":[1,2.5e-3,null,true,\"\\u00e9\"]},");
    line = into_row(std::move(line),
                    "\"note\":\"x\",\"deep\":" + std::string(126, '[') +
                        std::string(126, ']') + ",");
    std::ofstream(segment, std::ios::binary | std::ios::trunc)
        << line << "\n";

    ResultStore store(dir.str());
    EXPECT_EQ(store.stats().loaded, 1u);
    SweepOptions opts;
    opts.store = &store;
    const std::string csv =
        driver::sweep_csv(driver::run_sweep({cell}, opts)).to_string();
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().stale, 0u);
    EXPECT_EQ(csv, clean_csv);
}

} // namespace
