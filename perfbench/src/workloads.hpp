/**
 * @file
 * The benchmark's workloads and the timed pass each one repeats.
 *
 *  - paper-repro:   the paper suite (Table 2, 18 rows) x the five built-in
 *                   option sets, Ferrari baseline on every cell and GP-TP
 *                   on the default arm, one driver::run_sweep at 4 threads.
 *  - design-space:  {QFT,MCTR,QAOA,RCA} x {100,200} qubits x 10 nodes x
 *                   {ring,grid,star} x link fidelity {0.95,0.99} (target
 *                   0.99) x bandwidth {0,2} x a degraded 0-1:0.9 link x
 *                   {default,catonly}: 192 cells, one run_sweep at 4
 *                   threads.
 *  - cache-resweep: the design-space grid plus BV (240 cells) swept at 4
 *                   threads against a fresh copy of a cache::ResultStore
 *                   warmed with the design-space grid: 192 hits, 48 misses.
 *  - compile-300:   {QFT,MCTR,QAOA}-300-30 x {oee,multilevel}, each cell
 *                   compiled serially through driver::run_cell.
 *
 * Every pass runs with the library observer off.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace perfbench {

/** One named workload: the cells a pass compiles and how it runs them. */
struct Workload
{
    std::string name;
    /** The circuit seed the cells use: the run's --seed on design-space
     * and cache-resweep, always 2022 on paper-repro and compile-300. */
    std::uint64_t seed = 2022;
    /** The cells one pass compiles, in row order. */
    std::vector<autocomm::driver::SweepCell> cells;
    /** cache-resweep only: the cells set-up warms into the store, a
     * prefix of `cells`. */
    std::vector<autocomm::driver::SweepCell> warm_cells;
    /** Pool threads of the sweep (1 for the serial workload). */
    std::size_t threads = 4;
    /** Compile each cell through driver::run_cell on the calling thread. */
    bool serial = false;

    bool uses_store() const { return !warm_cells.empty(); }
};

/** Build workload @p name for run seed @p seed; throws
 * std::invalid_argument for an unknown name. */
Workload make_workload(const std::string& name, std::uint64_t seed);

/** The outcome of one pass. */
struct PassResult
{
    double wall_s = 0.0;
    std::vector<autocomm::driver::SweepRow> rows;
    /** Per cell, ms: driver::run_cell wall time on the serial workload;
     * in sweeps the driver's own per-cell stopwatch
     * (SweepRow::compile_seconds: the compile stage, shared preparation
     * excluded), 0 for cells the store served. */
    std::vector<double> cell_ms;
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
};

/** Runs set-up and passes of one workload inside a work directory. */
class Runner
{
  public:
    Runner(const Workload& w, std::filesystem::path work_dir);
    ~Runner();

    Runner(const Runner&) = delete;
    Runner& operator=(const Runner&) = delete;

    /** One set-up, timed as a whole. For cache-resweep it warms the
     * template store with the design-space grid (its rows are the first
     * warm_cells.size() cells'); otherwise it is a warm-up pass. */
    PassResult setup();

    /** One timed pass (the store copy it opens is made before the clock
     * starts). */
    PassResult run_pass();

    /** A fresh copy of the warmed template store, named @p tag. */
    std::filesystem::path fresh_store(const std::string& tag) const;

    const Workload& workload() const { return w_; }

  private:
    const Workload& w_;
    std::filesystem::path dir_;
    std::filesystem::path template_;
};

} // namespace perfbench
