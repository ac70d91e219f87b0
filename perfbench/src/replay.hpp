/**
 * @file
 * The per-layer replay: one pass of a workload re-run on the calling
 * thread through the layers' public functions (circuits/qir, partition,
 * multilevel, hw, pass, baseline, cache), with the benchmark's own spans
 * around each call and the library observer left off. The same replay,
 * unrecorded, is the output check of every run: each replayed row must
 * equal the timed passes' row and pass the verify checkers.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

/**
 * In-memory span recorder. Spans nest in the order they open; they stay
 * in memory until the run writes them out. A recorder constructed off
 * reads no clock and records nothing.
 */
class Recorder
{
  public:
    explicit Recorder(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span inside the innermost open one; returns its id (-1
     * when off). @p name must have static storage duration. */
    int begin(const char* name, std::string label = {});

    /** Close span @p id; returns its duration in ms (0 when off). */
    double end(int id);

    /** Self time per span name in ms: each span's duration minus the
     * time its child spans cover, summed over spans of that name. */
    std::map<std::string, double> self_ms() const;

    /** Summed duration of the top-level spans, in ms. */
    double root_ms() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool write_chrome_trace(const std::string& path) const;

  private:
    struct Span
    {
        const char* name = nullptr;
        std::string label;
        int parent = -1;
        std::uint64_t t0_ns = 0;
        std::uint64_t t1_ns = 0;
    };

    std::uint64_t now_ns() const;

    bool on_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

/** RAII span on a Recorder. */
class Scoped
{
  public:
    Scoped(Recorder& r, const char* name, std::string label = {})
        : r_(r), id_(r.begin(name, std::move(label)))
    {
    }
    ~Scoped() { finish(); }

    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

    /** Close the span now; returns its duration in ms (0 when the
     * recorder is off or the span was already closed). */
    double finish()
    {
        if (done_)
            return 0.0;
        done_ = true;
        return r_.end(id_);
    }

  private:
    Recorder& r_;
    int id_;
    bool done_ = false;
};

/** What one replay did and found. */
struct ReplayReport
{
    std::size_t cells = 0;  ///< cells replayed (and checked, if asked)
    std::size_t failed = 0; ///< cells whose row or invariants disagree
    std::vector<std::string> failures; ///< the first few diagnostics

    /** Replay wall time minus the time spent only on checking, in ms. */
    double work_ms = 0.0;
    /** Longest dependent chain under run_sweep's stage pipeline (program
     * -> mapping -> slowest cell, plus the serial store traffic); the
     * whole replay for the serial workload. Recorded replays only. */
    double critical_path_ms = 0.0;

    // Work counted at the layer boundaries (the workload's own work;
    // check-only compiles are not counted).
    std::size_t gates = 0;     ///< gates of every decomposed program
    std::size_t remote_cx = 0; ///< remote CX under every mapping built
    std::size_t aggregate_calls = 0;
    std::size_t aggregate_dups = 0; ///< calls on an input seen before
    std::size_t blocks = 0;
    std::size_t block_remote_cx = 0; ///< remote gates the blocks carry
    std::size_t epr_pairs = 0;
    std::size_t detours = 0;
    std::size_t purify_rounds = 0;
    std::size_t store_hits = 0;
    std::size_t store_bytes = 0;

    // AutoComm against the Ferrari baseline over the default-arm cells
    // (filled by checking replays).
    std::size_t default_cells = 0;
    double comm_reduction_sum = 0.0;    ///< sum of 1 - comms/baseline
    double latency_reduction_sum = 0.0; ///< sum of 1 - makespan/baseline

    void fail(const std::string& why);
};

/**
 * Replay one pass of @p runner's workload on this thread. Preparation is
 * memoized the way run_sweep memoizes it (the serial workload prepares
 * every cell afresh, like run_cell). With @p check, every replayed row
 * must equal the same cell's row of @p reference and pass
 * verify::check_schedule / check_metrics / check_cross (against a
 * Ferrari compile) / check_gptp; cells the store serves are recompiled
 * for that outside the recorded work.
 */
ReplayReport replay(Runner& runner,
                    const std::vector<autocomm::driver::SweepRow>& reference,
                    Recorder& rec, bool check);

} // namespace perfbench
