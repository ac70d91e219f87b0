/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--work-dir DIR]
 *
 * A run sets the workload up three times (median reported as setup_s),
 * then repeats timed passes for S seconds (at least three) with the
 * library observer off, asserting after every pass that it stayed off and
 * recorded nothing. Pass and per-cell times are reported as the fastest
 * of the run. Every pass's sweep CSV must equal the first one's;
 * when the workload's circuits use seed 2022 (always on paper-repro and
 * compile-300) it must also hash to the digest recorded below. A replay
 * of one pass through the layers' public functions then checks every
 * cell with the verify checkers (the only check at other seeds). With
 * --trace 1 the replay runs again with the benchmark's own
 * spans on, a stats-recording pass measures the library observer's cost,
 * and the per-layer metrics are reported instead of the end-to-end ones.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. The exit code is 0 only when every output check passed.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "support/log.hpp"
#include "workloads.hpp"

namespace {

using namespace autocomm;
using perfbench::PassResult;
using perfbench::Recorder;
using perfbench::ReplayReport;
using perfbench::Runner;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 2022;
constexpr int kSetups = 3;
constexpr int kMinPasses = 3;

/** FNV-1a digests of each workload's sweep CSV at the default seed. */
const std::map<std::string, std::uint64_t> kDigests = {
    {"paper-repro", 0xac6352e03f7452e4ull},
    {"design-space", 0x833f1296e7d42115ull},
    {"cache-resweep", 0x0a05c680992be847ull},
    {"compile-300", 0x4a282246e1c8a0efull},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    int seconds = 10;
    bool trace = false;
    std::string work_dir = ".bench_build/perfbench-work";
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--work-dir DIR]\n"
                 "workloads: paper-repro, design-space, cache-resweep, "
                 "compile-300\n");
    return 2;
}

std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The fastest of @p v (0 when empty). On a shared host a pass runs up to
 * ~1.6x slower while neighbours load the cores, in phases lasting seconds,
 * so the median of one run depends on which phases it met; the fastest
 * pass of a run is the program's own cost under the least interference. */
double
fastest(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Geometric mean of the positive entries of @p v (0 when none). */
double
geomean(const std::vector<double>& v)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (double x : v)
        if (x > 0.0) {
            log_sum += std::log(x);
            ++n;
        }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

double
peak_rss_mb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Attempted/failed bookkeeping plus the first few diagnostics. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> notes;

    void fail(std::size_t n, const std::string& why)
    {
        failed += n;
        if (notes.size() < 16)
            notes.push_back(why);
    }
};

/** The library observer must be off and must have recorded nothing. */
void
require_observer_quiet(Tally& tally, const char* when)
{
    const obs::Registry& reg = obs::Registry::instance();
    if (obs::enabled() || !reg.counter_names().empty() ||
        !reg.histogram_names().empty() || !obs::collect_events().empty())
        tally.fail(1, std::string("library observer recorded ") + when);
}

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
print_result(const Tally& tally, const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false", tally.attempted,
                tally.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

int
run(const Args& a, const Workload& w, const fs::path& work)
{
    Tally tally;
    Runner runner(w, work);
    require_observer_quiet(tally, "before the run");

    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k)
        setups.push_back(runner.setup().wall_s);

    // Per-cell compile-time samples from the timed passes; cells the store
    // serves have none.
    std::vector<std::vector<double>> cell_ms(w.cells.size());
    auto add_cell_samples = [&cell_ms](const PassResult& p) {
        for (std::size_t i = 0; i < p.cell_ms.size(); ++i)
            if (p.cell_ms[i] > 0.0)
                cell_ms[i].push_back(p.cell_ms[i]);
    };

    // ---- Timed passes, observer off ----
    std::vector<double> walls;
    std::vector<driver::SweepRow> reference;
    std::string ref_csv;
    const auto deadline = Clock::now() + std::chrono::seconds(a.seconds);
    for (int pass = 0; pass < kMinPasses || Clock::now() < deadline;
         ++pass) {
        PassResult p = runner.run_pass();
        require_observer_quiet(tally, "during a timed pass");
        tally.attempted += p.rows.size();
        for (const driver::SweepRow& r : p.rows)
            if (!r.ok)
                tally.fail(1, r.cell.label() + ": " + r.error);
        if (w.uses_store() &&
            (p.store_hits != w.warm_cells.size() ||
             p.store_misses != w.cells.size() - w.warm_cells.size()))
            tally.fail(1, support::strprintf(
                              "store served %zu hits / %zu misses",
                              p.store_hits, p.store_misses));
        const std::string csv = driver::sweep_csv(p.rows).to_string();
        if (pass == 0) {
            ref_csv = csv;
            reference = std::move(p.rows);
        } else if (csv != ref_csv) {
            tally.fail(w.cells.size(),
                       support::strprintf("pass %d rows differ from pass 0",
                                          pass));
        }
        walls.push_back(p.wall_s);
        add_cell_samples(p);
    }
    const double rss_mb = peak_rss_mb();
    const double wall = fastest(walls);
    const double wall_median = median(walls);

    const std::uint64_t digest = fnv1a(ref_csv);
    if (w.seed == kDefaultSeed && digest != kDigests.at(w.name))
        tally.fail(w.cells.size(),
                   support::strprintf("sweep CSV digest %016llx, recorded "
                                      "%016llx",
                                      static_cast<unsigned long long>(digest),
                                      static_cast<unsigned long long>(
                                          kDigests.at(w.name))));

    // ---- Output check: unrecorded replay + verify checkers ----
    Recorder untraced(false);
    const ReplayReport chk =
        perfbench::replay(runner, reference, untraced, /*check=*/true);
    require_observer_quiet(tally, "during the replay");
    tally.attempted += chk.cells;
    tally.failed += chk.failed;
    for (const std::string& f : chk.failures)
        tally.notes.push_back(f);

    std::printf("workload %s: %zu cells, %zu thread(s), seed %llu, "
                "%zu passes, csv digest %016llx\n",
                w.name.c_str(), w.cells.size(), w.threads,
                static_cast<unsigned long long>(a.seed), walls.size(),
                static_cast<unsigned long long>(digest));
    std::printf("set-up s:");
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\npass wall s:");
    for (double s : walls)
        std::printf(" %.4f", s);
    std::printf("\npass wall s fastest %.4f, median %.4f\n", wall,
                wall_median);

    std::vector<Metric> metrics;
    if (!a.trace) {
        std::vector<double> cell_fastest;
        for (const std::vector<double>& v : cell_ms)
            if (!v.empty())
                cell_fastest.push_back(fastest(v));
        std::vector<double> comms, makespans, raw_epr;
        for (const driver::SweepRow& r : reference) {
            comms.push_back(static_cast<double>(r.metrics.total_comms));
            makespans.push_back(r.schedule.makespan);
            raw_epr.push_back(static_cast<double>(r.schedule.epr_raw_pairs));
        }
        const double dc =
            chk.default_cells ? static_cast<double>(chk.default_cells) : 1.0;
        metrics = {
            {"setup_s", median(setups), "s"},
            {"wall_s", wall, "s"},
            {"cells_per_s", static_cast<double>(w.cells.size()) / wall,
             "cells/s"},
            {"compile_ms_geomean", geomean(cell_fastest), "ms"},
            {"compile_ms_max",
             cell_fastest.empty() ? 0.0
                                  : *std::max_element(cell_fastest.begin(),
                                                      cell_fastest.end()),
             "ms"},
            {"peak_rss_mb", rss_mb, "MB"},
            {"comm_reduction_pct", 100.0 * chk.comm_reduction_sum / dc, "%"},
            {"latency_reduction_pct", 100.0 * chk.latency_reduction_sum / dc,
             "%"},
            {"comms_geomean", geomean(comms), "count"},
            {"makespan_geomean", geomean(makespans), "CX"},
            {"raw_epr_geomean", geomean(raw_epr), "count"},
        };
    } else {
        // ---- Traced replay (benchmark spans; library observer off) ----
        Recorder rec(true);
        const ReplayReport tr =
            perfbench::replay(runner, reference, rec, /*check=*/false);
        require_observer_quiet(tally, "during the traced replay");
        const fs::path trace_path =
            work.parent_path() /
            support::strprintf("%s-seed%llu-trace.json", w.name.c_str(),
                               static_cast<unsigned long long>(a.seed));
        if (!rec.write_chrome_trace(trace_path.string()))
            tally.fail(1, "cannot write " + trace_path.string());

        // ---- One pass with stats-level recording, as --stats-out ----
        obs::set_lane_name("main");
        obs::set_enabled(true);
        const PassResult stats_pass = runner.run_pass();
        obs::set_enabled(false);
        obs::reset();
        obs::Registry::instance().reset();
        if (driver::sweep_csv(stats_pass.rows).to_string() != ref_csv)
            tally.fail(w.cells.size(), "stats-recording pass changed rows");

        std::map<std::string, double> self = rec.self_ms();
        auto ms = [&self](const char* span) { return self[span]; };
        auto frac = [](std::size_t num, std::size_t den) {
            return den ? static_cast<double>(num) / static_cast<double>(den)
                       : 0.0;
        };
        auto count = [](std::size_t n) { return static_cast<double>(n); };
        metrics = {
            {"partition.oee_ms", ms("partition.oee"), "ms"},
            {"partition.multilevel_ms", ms("partition.multilevel"), "ms"},
            {"partition.graph_ms", ms("partition.graph"), "ms"},
            {"qir.decompose_ms", ms("qir.decompose"), "ms"},
            {"qir.gates", count(tr.gates), "count"},
            {"partition.remote_cx", count(tr.remote_cx), "count"},
            {"autocomm.aggregate_ms", ms("autocomm.aggregate"), "ms"},
            {"autocomm.aggregate_calls", count(tr.aggregate_calls), "count"},
            {"autocomm.aggregate_dup_frac",
             frac(tr.aggregate_dups, tr.aggregate_calls), "frac"},
            {"autocomm.blocks", count(tr.blocks), "count"},
            {"autocomm.remote_cx_per_block",
             frac(tr.block_remote_cx, tr.blocks), "count"},
            {"autocomm.assign_ms", ms("autocomm.assign"), "ms"},
            {"autocomm.reorder_ms", ms("autocomm.reorder"), "ms"},
            {"autocomm.schedule_ms", ms("autocomm.schedule"), "ms"},
            {"autocomm.epr_pairs", count(tr.epr_pairs), "count"},
            {"autocomm.detours", count(tr.detours), "count"},
            {"autocomm.purify_rounds", count(tr.purify_rounds), "count"},
            {"hw.machine_ms", ms("hw.machine"), "ms"},
            {"baseline.ferrari_ms", ms("baseline.ferrari"), "ms"},
            {"baseline.gptp_ms", ms("baseline.gptp"), "ms"},
            {"cache.open_ms", ms("cache.open"), "ms"},
            {"cache.key_ms", ms("cache.key"), "ms"},
            {"cache.lookup_ms", ms("cache.lookup"), "ms"},
            {"cache.insert_ms", ms("cache.insert"), "ms"},
            {"cache.flush_ms", ms("cache.flush"), "ms"},
            {"cache.hit_frac", frac(tr.store_hits, w.cells.size()), "frac"},
            {"cache.store_bytes", count(tr.store_bytes), "B"},
            {"driver.busy_frac",
             rec.root_ms() /
                 (1e3 * static_cast<double>(w.threads) * wall_median),
             "frac"},
            {"driver.critical_path_ms", tr.critical_path_ms, "ms"},
            {"obs.stats_overhead", stats_pass.wall_s / wall_median, "x"},
            {"obs.trace_overhead", tr.work_ms / chk.work_ms, "x"},
        };
        std::printf("replay self time by span (ms):\n");
        for (const auto& [name, v] : self)
            std::printf("  %-22s %10.3f\n", name.c_str(), v);
        std::printf("trace written to %s\n", trace_path.string().c_str());
    }

    for (const Metric& m : metrics)
        if (!std::isfinite(m.value))
            tally.fail(1, m.name + " is not finite");
    for (const std::string& n : tally.notes)
        std::printf("FAILED: %s\n", n.c_str());
    for (const Metric& m : metrics)
        std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    print_result(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (a.seconds < 1)
                return usage();
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                return usage();
            a.trace = v == "1";
        } else if (arg == "--work-dir") {
            a.work_dir = v;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }

    support::set_log_level(support::LogLevel::Warn);
    try {
        const Workload w = perfbench::make_workload(a.workload, a.seed);
        const fs::path work =
            fs::path(a.work_dir) /
            support::strprintf("%s-%d", w.name.c_str(),
                               static_cast<int>(getpid()));
        return run(a, w, work);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
