/**
 * @file
 * Shared CLI plumbing for the bench binaries: the AUTOCOMM_CSV_DIR
 * output directory and the observer flags (--trace-out, --stats-out,
 * --explain-out, ...).
 */
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "obs/sampler.hpp"

namespace autocomm::bench {

/** CSV output directory from AUTOCOMM_CSV_DIR, if set. */
std::optional<std::string> csv_dir();

/**
 * Shared --trace-out/--stats-out/--explain-out/--explain-top/--ring/
 * --sample-ms handling for the bench binaries. parse_obs_flag
 * recognizes the flags (mutating @p i past the value); apply_obs_cli —
 * call it once after the argument loop — fills trace_path from the
 * AUTOCOMM_TRACE environment variable when the flag did not set it,
 * names the calling thread's trace lane "main", installs the ring
 * capacity, enables recording iff any option is set, and starts the
 * resource sampler when --sample-ms was given; finish_obs_cli — call it
 * after all pools have drained — stops the sampler and writes the
 * requested file(s).
 */
struct ObsCli
{
    std::string trace_path; ///< Chrome trace-event JSON destination
    std::string stats_path; ///< counters + histogram summaries JSON
    std::string explain_path; ///< decision explain-report JSON
    int explain_top = 5; ///< payload samples kept per decision bucket
    /** Flight-recorder capacity (events kept per thread); unset keeps
     * the current global setting (normally unbounded). */
    std::optional<std::size_t> ring;
    int sample_ms = 0; ///< resource-sampler interval; 0 = no sampler
    std::unique_ptr<obs::ResourceSampler> sampler;
};
bool parse_obs_flag(ObsCli& cli, int argc, char** argv, int& i);
void apply_obs_cli(ObsCli& cli);
void finish_obs_cli(ObsCli& cli);

} // namespace autocomm::bench
