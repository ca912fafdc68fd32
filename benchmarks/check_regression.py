"""CI perf-regression gate over the smoke-scale benchmark cells.

Reruns the ``quick_gate`` cells of ``bench_perf_scaling.py`` and the
``serving.quick_gate`` cells of ``bench_serving.py`` (tiny sizes, a few
seconds total) and fails if any timing cell is slower than the baseline
recorded in ``benchmarks/BENCH_perf_scaling.json`` by more than the
tolerance factor.  Correctness is gated absolutely regardless of
timing: the folded-inference delta must stay within atol=1e-5, a
pooled SISA fit + unlearn must hash identically to the serial one, two
training steps must peak within ``TAPE_RATIO_LIMIT`` (from
:mod:`repro.benchmarks.train_memory`) of one step, one forward tape
and one step's peak must stay within ``TAPE_MB_FACTOR`` of their
recorded sizes, the serving load must drop zero responses, and solo- vs
coalesced-served logits must be bit-identical (delta exactly 0.0).

Beyond the baseline-relative timing cells, the serving gate makes
same-machine, measured-vs-measured assertions: the response cache's
replayed logits are exactly the fresh ones (delta 0.0); and — prefetch
+ warm-up being on by default — the first batch served by a fresh
server lands within ``REVEIL_FIRST_BATCH_FACTOR`` (default 2.0) of its
own steady-state p50, i.e. the cold-start spike stays dead.

The forget lane closes the unlearning-as-a-service loop: the full
ReVeil arc is replayed as live mixed predict/forget traffic
(``bench_forget.py``), and the gate holds four absolute contracts —
zero predicts dropped through the retrain → hot-swap window, the
camouflage deletions *restoring* the backdoor over served traffic (the
paper's attack, reproduced online), honoring the remaining
attacker-data deletions dropping served ASR back down by a measurable
margin (>= 0.1 absolute), and the guard flagging the
camouflage-removal sequence — plus two timing bounds: deletion-to-swap
latency against the committed baseline, and the serving p99 measured
*during* a shard retrain within ``REVEIL_FORGET_SWAP_FACTOR`` of the
same run's steady-state p99 (measured-vs-measured, so machine speed
cancels out).

Modes
-----
- default: gate — regressions exit 1;
- ``--trend``: the nightly lane — timing comparisons against the
  committed baseline *warn only*, so perf drift between PRs is visible
  without blocking anything.  Absolute correctness contracts
  (bit-identity deltas, zero drops, the folding atol) still fail even
  in trend mode: the nightly warns on slow, never on wrong.

When ``$GITHUB_STEP_SUMMARY`` is set (any GitHub Actions job), a
markdown table of every gated cell (measured vs baseline vs limit,
verdict) is appended to it, so a perf-gate failure is readable from the
job summary without downloading logs.

Environment knobs::

    REVEIL_SKIP_PERF_GATE=1     skip entirely (flaky/loaded runners)
    REVEIL_PERF_TOLERANCE=3.0   allowed slowdown factor (default 3.0 —
                                CI hardware differs from the baseline
                                machine; the gate exists to catch
                                order-of-magnitude kernel regressions,
                                not scheduler noise)
    REVEIL_PERF_MIN_SLACK=0.25  absolute seconds a cell may exceed its
                                baseline regardless of ratio — keeps
                                millisecond-scale cells from tripping
                                the gate on scheduler jitter alone
    REVEIL_FIRST_BATCH_FACTOR=2.0
                                warmed first-batch p99 must be <= the
                                same server's steady p50 times this
    REVEIL_FIRST_BATCH_MIN_SLACK=0.05
                                absolute seconds the first batch may
                                exceed the factor bound — fresh-server
                                scheduling noise, not a cold start
    REVEIL_COMPILE_SPEEDUP=1.0  the served forward's steady p50 (the
                                folded interpreter at natural width,
                                1 request + 8 STRIP rows) must be <=
                                the width-32 compiled program's p50
                                times this — serving must not lose to
                                the compiled path it replaced (raise
                                above 1.0 only to de-flake a runner)
    REVEIL_COMPILE_MIN_SLACK=0.005
                                absolute seconds the served p50 may
                                exceed the compiled p50 before the
                                comparison fails
    REVEIL_OBS_OVERHEAD_FACTOR=1.05
                                steady p50 with tracing + metrics at
                                defaults must be <= the tracing-off p50
                                times this — the observability plane
                                may cost at most ~5%
    REVEIL_OBS_MIN_SLACK=0.005  absolute seconds the tracing-on p50 may
                                exceed the tracing-off p50 before the
                                ratio check fails (millisecond-cell
                                jitter guard)
    REVEIL_FORGET_SWAP_FACTOR=3.0
                                serving p99 measured during a shard
                                retrain must be <= the same run's
                                steady-state p99 times this — the
                                zero-downtime-swap bound
    REVEIL_FORGET_MIN_SLACK=0.05
                                absolute seconds the during-retrain p99
                                may exceed the factor bound before the
                                comparison fails

Refresh the baselines after intentional perf changes with::

    PYTHONPATH=src python benchmarks/bench_perf_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_serving.py --quick
    PYTHONPATH=src python benchmarks/bench_forget.py --quick

Exit code 0 on pass/skip/trend, 1 on regression or missing baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_forget import run_quick_gate as run_forget_quick_gate  # noqa: E402
from bench_perf_scaling import OUT_PATH, run_quick_gate  # noqa: E402
from bench_serving import run_quick_gate as run_serving_quick_gate  # noqa: E402
from repro.benchmarks.train_memory import TAPE_RATIO_LIMIT  # noqa: E402

#: Timing cells compared against the baseline (seconds, lower = better).
TIMING_CELLS = ("sisa_fit_unlearn_seconds", "conv_train_seconds",
                "folded_predict_seconds", "sisa_pooled_seconds")
ATOL_CELL = "folding_max_abs_delta"
SERVING_TIMING_CELLS = ("serving_p50_seconds",
                        "serving_cache_hit_p50_seconds",
                        "serving_first_batch_seconds",
                        "serving_compiled_steady_p50_seconds",
                        "serving_interpreted_steady_p50_seconds")
FORGET_TIMING_CELLS = ("forget_deletion_to_swap_seconds",
                       "forget_steady_p99_seconds")
#: The traced forward tape and training step may grow this much over
#: ``train_tape_mb`` and ``train_step_peak_mb``.
TAPE_MB_FACTOR = 1.1


class GateReport:
    """Collects per-cell verdicts for stdout and the CI step summary."""

    def __init__(self, trend: bool):
        self.trend = trend
        self.rows: List[dict] = []
        self.failed = False

    def add(self, cell: str, measured: str, baseline: str, limit: str,
            regressed: Optional[bool], note: str = "",
            correctness: bool = False) -> None:
        """``regressed=None`` records an informational / skipped row.

        ``correctness=True`` marks an absolute contract (bit-identity,
        zero drops, atol): those fail even in trend mode — the nightly
        lane warns on perf drift, never on broken bits.
        """
        if regressed is None:
            verdict = note or "info"
        elif not regressed:
            verdict = "ok"
        elif self.trend and not correctness:
            verdict = "DRIFT"
        else:
            verdict = "REGRESSION"
            self.failed = True
        self.rows.append({"cell": cell, "measured": measured,
                          "baseline": baseline, "limit": limit,
                          "verdict": verdict})
        print(f"  {cell}: {measured} vs {baseline} (limit {limit}) {verdict}")

    def write_step_summary(self) -> None:
        """Append the verdict table to ``$GITHUB_STEP_SUMMARY`` if set."""
        path = os.environ.get("GITHUB_STEP_SUMMARY")
        if not path:
            return
        mode = "trend (warn-only)" if self.trend else "gate"
        lines = [f"### Perf {mode} — "
                 f"{'FAILED' if self.failed else 'passed'}", "",
                 "| cell | measured | baseline | limit | verdict |",
                 "| --- | --- | --- | --- | --- |"]
        for row in self.rows:
            flag = {"REGRESSION": "❌ ", "DRIFT": "⚠️ "}.get(
                row["verdict"], "")
            lines.append(f"| `{row['cell']}` | {row['measured']} | "
                         f"{row['baseline']} | {row['limit']} | "
                         f"{flag}{row['verdict']} |")
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n\n")
        except OSError as exc:
            print(f"  (could not write step summary: {exc})",
                  file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=OUT_PATH,
                        help="benchmark JSON holding the quick_gate baseline")
    parser.add_argument("--trend", action="store_true",
                        help="nightly mode: timing regressions print (and "
                             "step-summarize) as DRIFT without failing; "
                             "absolute correctness gates (bit-identity, "
                             "zero drops, atol) still exit 1")
    args = parser.parse_args(argv)

    if os.environ.get("REVEIL_SKIP_PERF_GATE") == "1":
        print("perf gate skipped (REVEIL_SKIP_PERF_GATE=1)")
        return 0
    tolerance = float(os.environ.get("REVEIL_PERF_TOLERANCE", "3.0"))
    min_slack = float(os.environ.get("REVEIL_PERF_MIN_SLACK", "0.25"))
    if tolerance <= 0 or min_slack < 0:
        print(f"invalid REVEIL_PERF_TOLERANCE={tolerance} / "
              f"REVEIL_PERF_MIN_SLACK={min_slack}", file=sys.stderr)
        return 1

    if not args.baseline.exists():
        print(f"perf gate FAIL: baseline {args.baseline} missing "
              f"(run bench_perf_scaling.py --quick to create it)",
              file=sys.stderr)
        return 1
    report = json.loads(args.baseline.read_text())
    baseline = report.get("quick_gate")
    if not baseline:
        print(f"perf gate FAIL: {args.baseline} has no quick_gate section",
              file=sys.stderr)
        return 1
    serving_baseline = report.get("serving", {}).get("quick_gate")
    if not serving_baseline:
        print(f"perf gate FAIL: {args.baseline} has no serving.quick_gate "
              f"section (run bench_serving.py --quick to create it)",
              file=sys.stderr)
        return 1
    forget_baseline = report.get("forget", {}).get("quick_gate")
    if not forget_baseline:
        print(f"perf gate FAIL: {args.baseline} has no forget.quick_gate "
              f"section (run bench_forget.py --quick to create it)",
              file=sys.stderr)
        return 1

    gate = GateReport(trend=args.trend)

    def gate_timing(cells, base_cells, measured_cells) -> None:
        for cell in cells:
            base, now = base_cells.get(cell), measured_cells[cell]
            if base is None:
                gate.add(cell, f"{now:.3f}s", "—", "no baseline", None,
                         note="skipped")
                continue
            ratio = now / base
            # A cell regresses only when it exceeds the ratio tolerance
            # AND the absolute slack: millisecond cells can jitter far
            # past 3x on a loaded runner without any real regression.
            regressed = ratio > tolerance and (now - base) > min_slack
            gate.add(cell, f"{now:.3f}s ({ratio:.2f}x)", f"{base:.3f}s",
                     f"{tolerance:g}x + {min_slack:g}s", regressed)

    mode = "trend (warn-only)" if args.trend else "gate"
    print(f"rerunning quick-gate cells [{mode}] (tolerance {tolerance:g}x, "
          f"min slack {min_slack:g}s)")
    measured = run_quick_gate()
    gate_timing(TIMING_CELLS, baseline, measured)

    delta = measured[ATOL_CELL]
    gate.add(ATOL_CELL, f"{delta:.2e}", "—", "1e-5", delta > 1e-5,
             correctness=True)
    # Bit-identity of pooled vs serial SISA is absolute: correctness,
    # not timing, so trend mode still fails on it.
    identical = measured.get("sisa_pooled_bit_identical", 0.0) == 1.0
    gate.add("sisa_pooled_bit_identical", "yes" if identical else "NO",
             "—", "exact", not identical, correctness=True)
    # A ratio of allocation sizes, not of times: machine speed and load
    # do not move it, so it is gated absolutely, like the above.  The
    # recorded value is shown beside it: a move away from it with the
    # limit still held means the two steps no longer peak alike.
    tape = measured["train_tape_ratio"]
    recorded = baseline.get("train_tape_ratio")
    gate.add("train_tape_ratio", f"{tape:.3f}",
             "—" if recorded is None else f"{recorded:.3f}",
             f"<= {TAPE_RATIO_LIMIT:g}", tape > TAPE_RATIO_LIMIT,
             correctness=True)
    # The ratio cannot see a tape that shrinks or grows with the step
    # around it (the conv's saved buffers do both), nor a step whose
    # backward stops freeing its graph (both peaks rise alike), so the
    # tape's and one step's traced sizes are gated against the recorded
    # ones.
    for cell in ("train_tape_mb", "train_step_peak_mb"):
        size = measured[cell]
        recorded_mb = baseline.get(cell)
        if recorded_mb is None:
            gate.add(cell, f"{size:.2f} MB", "—", "no baseline", None,
                     note="skipped")
        else:
            limit = TAPE_MB_FACTOR * recorded_mb
            gate.add(cell, f"{size:.2f} MB", f"{recorded_mb:.2f} MB",
                     f"<= {limit:.2f} MB", size > limit, correctness=True)

    print(f"rerunning serving quick-gate cells [{mode}]")
    serving = run_serving_quick_gate()
    gate_timing(SERVING_TIMING_CELLS, serving_baseline, serving)
    gate.add("serving_throughput_rps",
             f"{serving['serving_throughput_rps']:.1f}", "—",
             "informational", None)
    gate.add("serving_dropped", str(serving["serving_dropped"]), "—", "0",
             serving["serving_dropped"] != 0, correctness=True)
    serve_delta = serving["serving_solo_vs_coalesced_max_delta"]
    gate.add("serving_solo_vs_coalesced_max_delta", f"{serve_delta:.2e}",
             "—", "exactly 0", serve_delta != 0.0, correctness=True)

    # -- first-batch latency (prefetch + warm-up) ----------------------
    fb_factor = float(os.environ.get("REVEIL_FIRST_BATCH_FACTOR", "2.0"))
    fb_slack = float(os.environ.get("REVEIL_FIRST_BATCH_MIN_SLACK", "0.05"))
    first = serving["serving_first_batch_seconds"]
    steady = serving["serving_steady_p50_seconds"]
    cold = serving["serving_cold_first_batch_seconds"]
    regressed = (first > steady * fb_factor
                 and (first - steady) > fb_slack)
    gate.add("first_batch_vs_steady_p50", f"{first * 1e3:.1f}ms",
             f"{steady * 1e3:.1f}ms (steady p50)",
             f"{fb_factor:g}x + {fb_slack:g}s", regressed)
    gate.add("serving_cold_first_batch_seconds", f"{cold * 1e3:.1f}ms",
             "—", "informational", None)

    # -- compiled graphs -----------------------------------------------
    # Served logits must equal the compiled width-32 program's bit for
    # bit (delta exactly 0.0), and the served forward — interpreted, at
    # natural width — must not lose to that program on its own machine:
    # steady p50 served <= compiled * REVEIL_COMPILE_SPEEDUP, with an
    # absolute slack so millisecond-scale scheduler jitter cannot flake
    # the measured-vs-measured comparison.
    compiled_delta = serving["serving_compiled_vs_interpreted_max_delta"]
    gate.add("serving_compiled_vs_interpreted_max_delta",
             f"{compiled_delta:.2e}", "—", "exactly 0",
             compiled_delta != 0.0, correctness=True)
    compile_factor = float(os.environ.get("REVEIL_COMPILE_SPEEDUP", "1.0"))
    compile_slack = float(os.environ.get("REVEIL_COMPILE_MIN_SLACK", "0.005"))
    compiled_p50 = serving["serving_compiled_steady_p50_seconds"]
    served_p50 = serving["serving_interpreted_steady_p50_seconds"]
    regressed = (served_p50 > compiled_p50 * compile_factor
                 and (served_p50 - compiled_p50) > compile_slack)
    gate.add("compiled_vs_interpreted_p50",
             f"{served_p50 * 1e3:.2f}ms served "
             f"({1 / max(serving['serving_compile_speedup'], 1e-9):.2f}x "
             f"faster)",
             f"{compiled_p50 * 1e3:.2f}ms (compiled, width 32)",
             f"<= {compile_factor:g}x + {compile_slack:g}s", regressed)

    # -- response cache ------------------------------------------------
    gate.add("serving_cache_hit_rate",
             f"{serving['serving_cache_hit_rate']:.3f}", "—",
             "informational", None)
    cache_delta = serving["serving_cached_vs_fresh_max_delta"]
    gate.add("serving_cached_vs_fresh_max_delta", f"{cache_delta:.2e}",
             "—", "exactly 0", cache_delta != 0.0, correctness=True)

    # -- observability overhead ----------------------------------------
    # Tracing + metrics at their defaults may cost at most ~5% of the
    # steady p50, compared measured-vs-measured against the same load
    # with tracing off on this machine; the absolute slack keeps
    # millisecond-scale p50 jitter from flaking the ratio.
    obs_factor = float(os.environ.get("REVEIL_OBS_OVERHEAD_FACTOR", "1.05"))
    obs_slack = float(os.environ.get("REVEIL_OBS_MIN_SLACK", "0.005"))
    obs_on = serving["serving_obs_on_p50_seconds"]
    obs_off = serving["serving_obs_off_p50_seconds"]
    regressed = (obs_on > obs_off * obs_factor
                 and (obs_on - obs_off) > obs_slack)
    gate.add("obs_overhead_factor",
             f"{obs_on / max(obs_off, 1e-9):.3f}x ({obs_on * 1e3:.1f}ms)",
             f"{obs_off * 1e3:.1f}ms (tracing off)",
             f"<= {obs_factor:g}x + {obs_slack:g}s", regressed)

    # -- forget lane (unlearning as a service) -------------------------
    print(f"rerunning forget quick-gate cells [{mode}]")
    forget = run_forget_quick_gate()
    gate_timing(FORGET_TIMING_CELLS, forget_baseline, forget)
    gate.add("forget_dropped", str(forget["forget_dropped"]), "—", "0",
             forget["forget_dropped"] != 0, correctness=True)
    # The zero-downtime-swap bound, measured-vs-measured within the same
    # run: serving p99 sampled while a shard retrains must stay within
    # the factor of the steady-state p99 (absolute slack guards the
    # millisecond-scale cells against scheduler jitter).
    swap_factor = float(os.environ.get("REVEIL_FORGET_SWAP_FACTOR", "3.0"))
    swap_slack = float(os.environ.get("REVEIL_FORGET_MIN_SLACK", "0.05"))
    retrain_p99 = forget["forget_retrain_p99_seconds"]
    steady_p99 = forget["forget_steady_p99_seconds"]
    regressed = (retrain_p99 > steady_p99 * swap_factor
                 and (retrain_p99 - steady_p99) > swap_slack)
    gate.add("forget_retrain_vs_steady_p99",
             f"{retrain_p99 * 1e3:.1f}ms",
             f"{steady_p99 * 1e3:.1f}ms (steady p99)",
             f"<= {swap_factor:g}x + {swap_slack:g}s", regressed)
    # The ReVeil arc over served traffic is a correctness contract, not
    # a timing one: camouflage removal must restore the backdoor (the
    # attack reproducing online), and honoring the remaining
    # attacker-data deletions must measurably put it back down.
    restored = forget["forget_asr_restored"]
    camouflaged = forget["forget_asr_camouflaged"]
    gate.add("forget_asr_restored",
             f"{restored:.3f}", f"{camouflaged:.3f} (camouflaged)",
             "> camouflaged", restored <= camouflaged, correctness=True)
    drop = forget["forget_asr_drop"]
    gate.add("forget_asr_drop", f"{drop:.3f}",
             f"{forget['forget_asr_final']:.3f} (final ASR)", ">= 0.1",
             drop < 0.1, correctness=True)
    gate.add("forget_swaps", str(int(forget["forget_swaps"])), "—", ">= 2",
             forget["forget_swaps"] < 2, correctness=True)
    gate.add("forget_guard_flags_camouflage",
             str(int(forget["forget_guard_flags_camouflage"])), "—",
             ">= 1", forget["forget_guard_flags_camouflage"] < 1,
             correctness=True)

    gate.write_step_summary()
    if gate.failed:
        print("perf gate FAIL: regression beyond tolerance or a broken "
              "correctness contract (set REVEIL_SKIP_PERF_GATE=1 to bypass "
              "on flaky runners, or refresh the baseline if the change is "
              "intentional)", file=sys.stderr)
        return 1
    drift = sum(1 for row in gate.rows if row["verdict"] == "DRIFT")
    if args.trend and drift:
        print(f"perf trend: {drift} cells drifted past tolerance "
              f"(warn-only — see the step summary / table above)")
    else:
        print("perf gate ok" if not args.trend else "perf trend ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
