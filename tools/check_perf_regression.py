#!/usr/bin/env python3
"""Perf-regression gate over BENCH_perf_pipeline.json.

Compares a freshly measured `bench/perf_pipeline --overhead-only` result
against the committed baseline and fails (exit 1) when either

  * end-to-end throughput (traces_per_second) dropped by more than
    --max-tps-drop-pct (default 15%), or
  * the instrumentation overhead (instrumentation.overhead_pct) exceeds
    --max-overhead-pct (default 10%) in absolute terms. The budget was
    recalibrated from 5% when the SoA/AVX2 kernel pass (plus dropping the
    harness's per-pass corpus copy) shrank the measured pass ~6x: the
    instrumentation surface costs the same ~10 us per 1000-trace pass in
    absolute terms, but is now a larger fraction of a much faster
    pipeline, or
  * steady-state allocations per trace (allocations.per_trace) grew more
    than --max-alloc-increase-pct (default 10%) plus a 2-allocation slack
    over the baseline. Skipped unless both files carry counted results, or
  * the sampling profiler breaks its budget: enabled at the default rate
    costs more than --max-profiler-on-pct (default 5%), or the disabled
    A/A null experiment (profiler.off_overhead_pct) strays outside
    ±--max-profiler-off-pct (default 3%) — the disabled hook is one relaxed
    atomic load per frame, so any off-cost beyond harness noise is a bug.
    Skipped when the current file has no "profiler" section, or
  * the darshan-parser text reader started allocating per row:
    text_parse.allocations_per_row grew more than 10% plus a
    0.05-allocation slack over the baseline (a row-level allocation adds at
    least 1). Skipped unless both files carry counted "text_parse"
    results. text_parse.mb_per_second is printed but not gated: its
    run-to-run spread on one host is wider than any useful bound, or
  * a SIMD kernel regressed: for every kernel in the "kernels" section of
    both files, dispatched cycles/byte must not exceed the baseline by more
    than --max-kernel-regression-pct (default 35%; TSC micro-timings are
    noisier than the end-to-end gate), and — when the current run dispatched
    to a vector level (simd_level != "scalar") — the kernel's
    scalar/dispatched speedup must stay above --min-kernel-speedup (default
    0.8), i.e. the vector path is never meaningfully slower than its scalar
    reference. The floor is deliberately below 1.0: the scalar references
    mirror the AVX2 lane structure for bit-identity, so the compiler can
    auto-vectorize some of them (sum in particular) to near-parity, and the
    TSC micro-timings jitter. Skipped per kernel when either side lacks the
    entry, and entirely when the two runs dispatched at different SIMD
    levels (e.g. the forced-scalar CI job against an AVX2 baseline): their
    cycles/byte measure different code paths, and forced-scalar speedup is
    ~1.0 by construction.

The throughput check is relative to the baseline machine's own numbers, so
a slower CI runner only trips it when the *ratio* moves; the overhead check
is absolute because the <5% budget is machine-independent by construction
(both sides of the ratio run on the same box). The allocation count is
near-deterministic (same population, one thread, warmed workspace), so its
budget is deliberately tight: a new per-trace allocation on the hot path is
exactly the regression the workspace model exists to prevent.

Usage:
    check_perf_regression.py <baseline.json> <current.json> [options]
"""
import argparse
import json
import sys

# text_parse.allocations_per_row budget: relative growth plus an absolute
# slack, both far below the 1 allocation a per-row regression adds.
TEXT_ALLOC_INCREASE_PCT = 10.0
TEXT_ALLOC_SLACK = 0.05


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"check_perf_regression: cannot read {path}: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_perf_pipeline.json")
    parser.add_argument("current", help="freshly measured result")
    parser.add_argument("--max-tps-drop-pct", type=float, default=15.0)
    parser.add_argument("--max-overhead-pct", type=float, default=10.0)
    parser.add_argument("--max-alloc-increase-pct", type=float, default=10.0)
    parser.add_argument("--max-profiler-on-pct", type=float, default=5.0)
    parser.add_argument("--max-profiler-off-pct", type=float, default=3.0)
    parser.add_argument("--max-kernel-regression-pct", type=float,
                        default=35.0)
    parser.add_argument("--min-kernel-speedup", type=float, default=0.8)
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []

    base_tps = float(baseline.get("traces_per_second", 0.0))
    cur_tps = float(current.get("traces_per_second", 0.0))
    drop_pct = (
        100.0 * (base_tps - cur_tps) / base_tps if base_tps > 0.0 else 0.0
    )
    print(
        f"traces/s: baseline {base_tps:,.0f}, current {cur_tps:,.0f} "
        f"(change {-drop_pct:+.1f}%)"
    )
    if drop_pct > args.max_tps_drop_pct:
        failures.append(
            f"throughput dropped {drop_pct:.1f}% "
            f"(budget {args.max_tps_drop_pct:.0f}%)"
        )

    overhead = float(
        current.get("instrumentation", {}).get("overhead_pct", 0.0)
    )
    print(
        f"instrumentation overhead: {overhead:.2f}% "
        f"(budget {args.max_overhead_pct:.0f}%)"
    )
    if overhead > args.max_overhead_pct:
        failures.append(
            f"instrumentation overhead {overhead:.2f}% exceeds "
            f"{args.max_overhead_pct:.0f}% budget"
        )

    base_allocs = baseline.get("allocations", {})
    cur_allocs = current.get("allocations", {})
    if base_allocs.get("counted") and cur_allocs.get("counted"):
        base_per = float(base_allocs.get("per_trace", 0.0))
        cur_per = float(cur_allocs.get("per_trace", 0.0))
        budget = base_per * (1.0 + args.max_alloc_increase_pct / 100.0) + 2.0
        print(
            f"allocations/trace: baseline {base_per:.2f}, "
            f"current {cur_per:.2f} (budget {budget:.2f})"
        )
        if cur_per > budget:
            failures.append(
                f"allocations per trace grew to {cur_per:.2f} "
                f"(budget {budget:.2f})"
            )
    else:
        print("allocations/trace: not counted on both sides, skipping")

    profiler = current.get("profiler")
    if profiler is not None:
        on_pct = float(profiler.get("enabled_overhead_pct", 0.0))
        off_pct = float(profiler.get("off_overhead_pct", 0.0))
        print(
            f"profiler overhead: off {off_pct:+.2f}% "
            f"(null budget ±{args.max_profiler_off_pct:.0f}%), "
            f"enabled {on_pct:.2f}% "
            f"(budget {args.max_profiler_on_pct:.0f}%)"
        )
        if abs(off_pct) > args.max_profiler_off_pct:
            failures.append(
                f"profiler-off A/A drift {off_pct:+.2f}% outside "
                f"±{args.max_profiler_off_pct:.0f}% — disabled hooks are "
                "not free or the harness is too noisy to gate"
            )
        if on_pct > args.max_profiler_on_pct:
            failures.append(
                f"profiler-enabled overhead {on_pct:.2f}% exceeds "
                f"{args.max_profiler_on_pct:.0f}% budget"
            )
    else:
        print("profiler overhead: no profiler section, skipping")

    base_text = baseline.get("text_parse")
    cur_text = current.get("text_parse")
    if cur_text is not None:
        print(f"text parse: {float(cur_text.get('mb_per_second', 0.0)):.1f} "
              "MB/s (reported, not gated)")
    if (base_text is not None and cur_text is not None
            and base_text.get("counted") and cur_text.get("counted")):
        base_per = float(base_text.get("allocations_per_row", 0.0))
        cur_per = float(cur_text.get("allocations_per_row", 0.0))
        budget = (base_per * (1.0 + TEXT_ALLOC_INCREASE_PCT / 100.0)
                  + TEXT_ALLOC_SLACK)
        print(
            f"text parse allocations/row: baseline {base_per:.3f}, "
            f"current {cur_per:.3f} (budget {budget:.3f})"
        )
        if cur_per > budget:
            failures.append(
                f"text parse allocations per row grew to {cur_per:.3f} "
                f"(budget {budget:.3f})"
            )
    else:
        print("text parse allocations/row: not counted on both sides, "
              "skipping")

    base_kernels = baseline.get("kernels", {})
    cur_kernels = current.get("kernels", {})
    base_level = baseline.get("simd_level", "scalar")
    cur_level = current.get("simd_level", "scalar")
    if base_level != cur_level:
        # A forced-scalar (or differently-dispatched) run measures a
        # different code path than the baseline; its cycles/byte are not
        # comparable. The forced-scalar CI job still exercises the
        # throughput and overhead gates above.
        print(
            f"kernels: baseline level {base_level} vs current "
            f"{cur_level}, skipping cycles/byte comparison"
        )
    elif base_kernels and cur_kernels:
        for name, cur_entry in sorted(cur_kernels.items()):
            base_entry = base_kernels.get(name)
            if base_entry is None:
                print(f"kernel {name}: no baseline entry, skipping")
                continue
            base_cpb = float(base_entry.get("dispatched_cycles_per_byte", 0))
            cur_cpb = float(cur_entry.get("dispatched_cycles_per_byte", 0))
            speedup = float(cur_entry.get("speedup", 0.0))
            growth_pct = (
                100.0 * (cur_cpb - base_cpb) / base_cpb
                if base_cpb > 0.0
                else 0.0
            )
            print(
                f"kernel {name}: cycles/byte baseline {base_cpb:.3f}, "
                f"current {cur_cpb:.3f} (change {growth_pct:+.1f}%), "
                f"speedup {speedup:.2f}x"
            )
            if growth_pct > args.max_kernel_regression_pct:
                failures.append(
                    f"kernel {name} cycles/byte grew {growth_pct:.1f}% "
                    f"(budget {args.max_kernel_regression_pct:.0f}%)"
                )
            if cur_level != "scalar" and speedup < args.min_kernel_speedup:
                failures.append(
                    f"kernel {name} simd speedup {speedup:.2f}x below "
                    f"{args.min_kernel_speedup:.2f}x floor at level "
                    f"{cur_level}"
                )
    else:
        print("kernels: section missing on one side, skipping")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
