/**
 * @file
 * Exact JSON round-tripping of driver::SweepRow for the result store.
 *
 * Everything a bench binary reads off a row after run_sweep returns is
 * serialized — including the per-communication CX vector behind Fig. 15
 * and the EPR ledger behind the program-fidelity estimate — so a warm
 * (cache-hit) row is indistinguishable from the cold row it replays:
 * sweep_csv() output is byte-identical. The one deliberate exception is
 * `compile_seconds` (wall-clock, non-deterministic, excluded from the
 * CSV): cached rows restore it as 0.
 *
 * The two directions are asymmetric on purpose. Writing builds a small
 * Json tree once per compiled row (its dump() is the stored text).
 * Reading never builds a tree: the store keeps each row as validated
 * text and row_from_text() decodes it with a JsonReader straight into
 * the SweepRow on a hit, so an open store costs its text and nothing
 * more.
 */
#pragma once

#include <string_view>

#include "cache/json.hpp"
#include "driver/sweep.hpp"

namespace autocomm::cache {

/** Serialize the result fields of @p row (the cell is keyed, not stored). */
Json row_to_json(const driver::SweepRow& row);

/**
 * Rebuild a row from the text of row_to_json(row).dump(), attaching the
 * live @p cell (whose key must have matched the entry). Members may come
 * in any order and unknown members are skipped, but every member the
 * writer emits is required. Throws support::UserError on malformed,
 * ill-typed, out-of-range or field-incomplete text — the store treats
 * that as a stale entry, not a crash.
 */
driver::SweepRow row_from_text(std::string_view text,
                               const driver::SweepCell& cell);

} // namespace autocomm::cache
