/**
 * @file
 * Structured decision events: the "why" layer of the observability
 * subsystem. Where spans answer "how long" and counters "how many",
 * obs::decision() records *what the compiler chose and why* — one event
 * per burst-pair accept/reject, Cat-vs-TP assignment, vessel eviction,
 * detour, FM move, and so on — as a typed key/value payload in the
 * per-thread trace buffers (ring-bounded like spans, rendered as
 * Chrome-trace instants with args) plus a pair of registry counters
 * (`decision.<category>.<verdict>`, global and per-cell-scope) that
 * survive flight-recorder rotation.
 *
 * Like all of obs, decisions are a pure observer: recording is gated on
 * obs::enabled() (the disabled path is one relaxed load and performs no
 * heap allocation), nothing recorded here influences compilation, and
 * sweep CSVs are byte-identical with decisions on or off.
 *
 * Determinism: every category is instrumented at a serial commit point,
 * so every decision counter is identical at any thread count (pinned in
 * tests/test_decision.cpp, with no exemptions).
 *
 * Categories and verdicts must be string literals (static storage);
 * payload keys too. Dynamic values go in the arg payloads.
 */
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace autocomm::obs {

/** Integer payload entry (any integral type, including bool/enums via
 * cast). Never allocates. */
template <typename T,
          std::enable_if_t<std::is_integral_v<T>, int> = 0>
inline DecisionArg
arg(const char* key, T v)
{
    DecisionArg a;
    a.key = key;
    a.kind = DecisionArg::Kind::Int;
    a.i = static_cast<long long>(v);
    return a;
}

/** Floating-point payload entry. Never allocates. */
inline DecisionArg
arg(const char* key, double v)
{
    DecisionArg a;
    a.key = key;
    a.kind = DecisionArg::Kind::Double;
    a.d = v;
    return a;
}

/** String payload entry (routes, cause labels). May allocate — guard
 * expensive formatting with `if (obs::enabled())` at the call site. */
inline DecisionArg
arg(const char* key, std::string v)
{
    DecisionArg a;
    a.key = key;
    a.kind = DecisionArg::Kind::Str;
    a.s = std::move(v);
    return a;
}

inline DecisionArg
arg(const char* key, const char* v)
{
    return arg(key, std::string(v));
}

/**
 * Record one fully built decision event: bumps the
 * `decision.<category>.<verdict>` counter (global + active CellScope)
 * and appends a decision TraceEvent to the calling thread's buffer.
 * No-op when disabled. Prefer the variadic decision() wrapper.
 */
void decision_event(const char* category, const char* verdict,
                    std::vector<DecisionArg> args);

/**
 * Record a decision: `obs::decision("schedule.evict", "route-conflict",
 * obs::arg("victim", q), obs::arg("node", n))`. @p category and
 * @p verdict must be string literals; verdicts must not contain '.'
 * (categories may). When disabled this is one relaxed load; the
 * DecisionArg temporaries for int/double args never allocate.
 */
template <typename... Args>
inline void
decision(const char* category, const char* verdict, Args&&... args)
{
    if (!enabled())
        return;
    std::vector<DecisionArg> payload;
    payload.reserve(sizeof...(Args));
    (payload.push_back(std::forward<Args>(args)), ...);
    decision_event(category, verdict, std::move(payload));
}

/**
 * The explain report: recorded decisions grouped per sweep cell, as one
 * JSON document —
 *
 *   {"decisions": <grand total>,
 *    "totals": {"schedule.detour": {"taken": 3}, ...},
 *    "cells": {"QFT-16-2/default": {
 *        "schedule.detour": {"taken": {"count": 3, "samples": [
 *            {"verdict": "taken", "t_ms": ..., "a": 0, "b": 2,
 *             "original": "0-1-2", "chosen": "0-3-2"}, ...]}}, ...},
 *     ...},
 *    "global": { <same shape as one cell> }}
 *
 * Counts come from the registry counters, so they are exact even after
 * flight-recorder rotation dropped the underlying events, and per-cell
 * counts sum (with "global") to the totals. Samples are the newest
 * @p top_n full payloads per (cell, category, verdict) still present in
 * the trace buffers. The "global" bucket holds decisions recorded
 * outside any CellScope (e.g. the memoized multilevel prepare stages);
 * its counts are totals minus the per-cell sums. Requires recording
 * quiescence, like every export.
 */
std::string explain_json(std::size_t top_n = 5);

/** Write explain_json() to @p path; warns and returns false on I/O
 * failure. */
bool write_explain_json(const std::string& path, std::size_t top_n = 5);

} // namespace autocomm::obs
