"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one benchmark under a named configuration;
  ``--tenants N --partition-mode {exclusive,shared-tlb,sub-entry}``
  co-schedules N tenants on one GPU and prints per-tenant isolation
  metrics (IPC, slowdown vs solo, Jain fairness, TLB cross-pollution)
  from a plan of the multi-tenant cell and one solo cell per benchmark;
* ``compare`` — run a benchmark across several configurations;
* ``report`` — regenerate every table/figure (writes EXPERIMENTS.md
  with ``--write``); every distinct cell is simulated once, ``--parallel
  N`` runs N at a time, and ``--plan`` prints the cell count and exits;
* ``check`` — differential self-check suites plus the golden-result
  regression gate (``--update-goldens`` to re-pin after an intentional
  result change);
* ``trace`` — summarize a Chrome trace file written by ``--trace``;
* ``list`` — show available benchmarks, configurations, and scales.

Every simulating command (``run``, ``compare``, ``report``) accepts the
same execution-resilience flags (``--timeout``, ``--checkpoint``,
``--resume``) and — except ``report``, which samples via its
time-resolved figure — the telemetry flags ``--trace PATH`` /
``--sample-every N``.  Traces load in ``chrome://tracing`` or
https://ui.perfetto.dev; a ``<trace>.manifest.json`` provenance record
is written next to every trace and checkpoint.

Failure contract (see DESIGN.md "Failure modes & recovery"): every
taxonomy error exits with a class-specific nonzero code (config=3,
workload=4, livelock=5, timeout=6, worker crash=7, checkpoint=8,
sanitizer=9, interrupted=13) and prints a single machine-readable JSON
line on stderr, e.g.::

    {"error": "livelock", "message": "...", "exit_code": 5}

``run`` and ``compare`` install two-stage signal handling: the first
SIGINT/SIGTERM triggers a graceful drain (final checkpoint + trace
flush, unfinished cells degrade to ``FAILED(interrupted)``, exit 13);
a second signal hard-exits with ``128 + signum``.

``--timeout`` runs cells in supervised subprocess workers with a
wall-clock watchdog; ``report --checkpoint/--resume`` makes a long
sweep restartable, even after ``kill -9`` or a full disk (a failed
append degrades the affected figure to ``FAILED(checkpoint)``).
``REPRO_FAULT=bench:config:kind[:times]`` injects deterministic faults
for testing the degradation path (the removed ``disk:...`` form exits
3);
``--sanitize[=strict|cheap]`` (or ``REPRO_SANITIZE``) enables runtime
invariant checking, and ``REPRO_SANITIZE_INJECT=<tag>`` deliberately
breaks one invariant to prove the checker fires.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine.errors import InterruptedRunError, SimulationError, classify
from .engine.faults import FaultPlan
from .engine.interrupt import GracefulInterrupt
from .experiments.configs import CONFIGS
from .experiments.runner import Cell, ExperimentRunner, Results, named_cell
from .workloads import BENCHMARKS, SCALES, TABLE2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "benchmark", choices=BENCHMARKS, help="Table II benchmark name"
    )
    parser.add_argument(
        "--scale", default="small", choices=sorted(SCALES),
        help="workload scale preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_exec_group(parser: argparse.ArgumentParser) -> None:
    """Execution-resilience flags shared by run, compare, and report."""
    group = parser.add_argument_group("execution resilience")
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell (a positive number; anything "
             "else exits 3); runs each cell in a supervised "
             "subprocess worker with retry on transient failures",
    )
    group.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="append completed cells to this store",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="preload the checkpoint instead of starting fresh "
             "(defaults --checkpoint to .repro_checkpoint.<scale>.jsonl)",
    )
    group.add_argument(
        "--sanitize", nargs="?", const="strict", default=None,
        choices=["strict", "cheap", "off"], metavar="MODE",
        help="runtime invariant checking (bare flag means strict; "
             "'off' overrides REPRO_SANITIZE); violations exit 9 with "
             "a sanitizer:<tag> error class",
    )
    group.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="run up to N sweep cells concurrently in supervised "
             "subprocess workers (results stay deterministic and are "
             "integrated in plan order; default: 1, sequential)",
    )


def _add_telemetry_group(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by run and compare."""
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace",
        help="write a Chrome trace-event JSON file (open in "
             "chrome://tracing or ui.perfetto.dev)",
    )
    group.add_argument(
        "--sample-every", type=int, default=None, metavar="CYCLES",
        dest="sample_every",
        help="snapshot TLB/walker counters every N cycles into a "
             "columnar time series",
    )


def _default_resume_path(args: argparse.Namespace) -> None:
    if args.resume and not args.checkpoint:
        args.checkpoint = f".repro_checkpoint.{args.scale}.jsonl"


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    _default_resume_path(args)
    return ExperimentRunner(
        scale=args.scale,
        seed=args.seed,
        timeout=args.timeout,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        fault_plan=FaultPlan.from_env(),
        strict=True,
        trace_path=getattr(args, "trace", None),
        sample_every=getattr(args, "sample_every", None),
        sanitize=getattr(args, "sanitize", None),
        parallel=args.parallel,
    )


def _finish_runner(runner: ExperimentRunner) -> None:
    """Merge traces / write manifests and report the artifact paths."""
    import os

    runner.close()
    # a fully-resumed run simulates nothing, hence writes no trace
    if runner.trace_path is not None and os.path.exists(runner.trace_path):
        print(f"trace            {runner.trace_path}")
        print(f"manifest         {runner.trace_path}.manifest.json")


def _drain_runner(
    runner: ExperimentRunner, interrupt: GracefulInterrupt
) -> None:
    """Graceful-drain epilogue: flush artifacts with further signals
    deferred, so a second Ctrl-C during the flush still hard-exits but
    a single one cannot tear a checkpoint or trace mid-write."""
    with interrupt.shield():
        _finish_runner(runner)


def _execute_run(runner: ExperimentRunner, cells) -> Results:
    """``repro run``'s plan under two-stage signal handling: a graceful
    interrupt flushes the runner's artifacts before the error exits."""
    with GracefulInterrupt() as interrupt:
        try:
            return runner.execute(cells)
        except InterruptedRunError:
            _drain_runner(runner, interrupt)
            print(
                f"{cells[0].benchmark}/{cells[0].tag}: FAILED(interrupted)",
                file=sys.stderr,
            )
            raise


def _run_tenancy(args: argparse.Namespace) -> int:
    """``repro run --tenants N``: co-schedule N tenants on one GPU and
    print per-tenant isolation/interference metrics.

    The plan is the multi-tenant cell, then one solo cell per distinct
    benchmark (the slowdown denominators).  The multi-tenant cell comes
    first, so a shared mode refuses a config before any solo cell
    simulates.
    """
    from .experiments.configs import get_config
    from .experiments.tenancy import _tenancy_cell
    from .tenancy import TenancySpec, expand_mix, parse_partition_mode

    tenants = (
        args.tenants if args.tenants is not None else len(args.tenant_mix)
    )
    mix = expand_mix(args.benchmark, tenants, args.tenant_mix)
    mode = parse_partition_mode(args.partition_mode)
    spec = TenancySpec(mix=mix, mode=mode, scale=args.scale, seed=args.seed)
    config = get_config(args.config)
    runner = _make_runner(args)
    shared = _tenancy_cell(spec, config)
    solos = [Cell(b, args.config, config) for b in dict.fromkeys(mix)]
    results = _execute_run(runner, [shared] + solos)
    result = results[shared.benchmark, shared.tag]
    result.apply_solo_baselines(
        {solo.benchmark: results[solo.benchmark, solo.tag].cycles
         for solo in solos}
    )
    print(f"configuration    {args.config} ({args.scale})")
    print(f"tenants          {spec.num_tenants} ({' + '.join(spec.mix)})")
    print(f"partition mode   {mode.value}")
    print(f"makespan         {result.combined.cycles:.0f} cycles")
    print(f"fairness (Jain)  {result.fairness_index:.4f}")
    print(f"cross-tenant TLB evictions  {result.cross_tenant_evictions}")
    print(f"{'tenant':>6s} {'benchmark':10s} {'ipc':>8s} {'slowdown':>9s} "
          f"{'l1 hit':>7s} {'faults':>7s} {'finish':>12s}")
    for t in result.tenants:
        hit = t.l1_tlb_hit_rate
        print(
            f"{t.asid:6d} {t.benchmark:10s} {t.ipc:8.4f} "
            f"{(t.slowdown if t.slowdown is not None else float('nan')):9.3f} "
            f"{(hit if hit is not None else float('nan')):7.3f} "
            f"{t.far_faults:7d} {t.finish_cycle:12.0f}"
        )
    _print_samples(result.combined.timeseries)
    _finish_runner(runner)
    return 0


def _print_samples(timeseries) -> None:
    """The ``samples`` line of a ``--sample-every`` run."""
    if timeseries is not None:
        print(f"samples          {len(timeseries['cycles'])} "
              f"(every {timeseries['interval']} cycles)")


def cmd_run(args: argparse.Namespace) -> int:
    if args.tenants is not None or args.tenant_mix:
        return _run_tenancy(args)
    runner = _make_runner(args)
    cell = named_cell(args.benchmark, args.config)
    result = _execute_run(runner, [cell])[args.benchmark, args.config]
    print(f"benchmark        {args.benchmark} ({args.scale})")
    print(f"configuration    {args.config}")
    print(f"cycles           {result.cycles:.0f}")
    print(f"L1 TLB hit rate  {result.avg_l1_tlb_hit_rate:.4f}")
    print(f"L2 TLB hit rate  "
          f"{result.l2_tlb_hits / max(result.l2_tlb_accesses, 1):.4f}")
    print(f"page walks       {result.walks}")
    print(f"far faults       {result.far_faults}")
    print(f"L1 cache hits    {result.l1_cache_hit_rate:.4f}")
    print(f"TBs completed    {result.tbs_completed}")
    _print_samples(result.timeseries)
    _finish_runner(runner)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.configs import get_config

    runner = _make_runner(args)
    if args.specs:
        # resolve every spec up front: a typo fails with exit code 3
        # before any cell simulates
        from .experiments.configs import resolve_spec

        names = [spec or "registry-default" for spec in args.specs]
        configs = [resolve_spec(spec) for spec in args.specs]
    else:
        names = list(args.configs)
        configs = [get_config(name) for name in names]
    cells = [
        Cell(args.benchmark, name, config)
        for name, config in zip(names, configs)
    ]
    base = None
    print(f"{'config':20s} {'L1 hit':>8s} {'cycles':>12s} {'norm.':>7s}")
    with GracefulInterrupt() as interrupt:
        i = 0
        try:
            # with --parallel N every cell starts on the worker pool here;
            # rows still print in order as each one completes
            runner.declare(cells)
            for i, cell in enumerate(cells):
                result = runner.execute([cell])[args.benchmark, cell.tag]
                if base is None:
                    base = result.cycles
                print(
                    f"{cell.tag:20s} {result.avg_l1_tlb_hit_rate:8.3f} "
                    f"{result.cycles:12.0f} "
                    f"{result.cycles / (base or result.cycles):7.3f}"
                )
        except InterruptedRunError:
            # the interrupted cell and everything after it degrade to
            # FAILED(interrupted) rows; finished rows already printed
            for name in names[i:]:
                print(f"{name:20s} {'FAILED(interrupted)':>8s}")
            _drain_runner(runner, interrupt)
            raise
    _finish_runner(runner)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import report

    return report.run_cli(args)


def cmd_check(args: argparse.Namespace) -> int:
    """Differential self-check suites + golden regression gate."""
    from .sanitizer import (
        check_goldens,
        collect_cells,
        default_golden_path,
        run_suites,
        write_goldens,
    )

    failed = False
    if not args.goldens_only:
        for outcome in run_suites(args.suites, args.scale, args.seed):
            print(outcome)
            failed = failed or not outcome.passed
    golden_path = args.goldens or default_golden_path(args.scale)
    if args.update_goldens:
        cells = collect_cells(args.scale, args.seed)
        path = write_goldens(golden_path, args.scale, args.seed, cells)
        print(f"[GOLD] wrote {len(cells)} cells to {path}")
    elif not args.skip_goldens:
        passed, lines = check_goldens(args.scale, args.seed, golden_path)
        mark = "PASS" if passed else "FAIL"
        for line in lines:
            print(f"[{mark}] goldens: {line}")
        failed = failed or not passed
    if failed:
        print("repro check: FAILED", file=sys.stderr)
        return 1
    print("repro check: all checks passed")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import load_trace, summarize_trace

    try:
        payload = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    print(summarize_trace(payload).format(top=args.top))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks (paper Table II):")
    for name in BENCHMARKS:
        meta = TABLE2[name]
        print(f"  {name:10s} {meta.application} [{meta.suite}]")
    print("\nconfigurations:")
    for name in CONFIGS:
        print(f"  {name}")
    from .experiments.configs import ZOO_SPECS, describe_components

    print("\ntranslation-policy registry (compare --specs "
          "'dim=component,...'):")
    for line in describe_components():
        print(f"  {line}")
    print("\nzoo ablation matrix (report 'Ext: translation zoo'):")
    for name, spec in ZOO_SPECS.items():
        print(f"  {name:16s} {spec or '(registry defaults)'}")
    print("\nscales:")
    for name, scale in sorted(SCALES.items(), key=lambda kv: kv[1].size_factor):
        print(f"  {name:6s} size x{scale.size_factor:g}, "
              f"up to {scale.max_tbs} traced TBs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'23 GPU TLB scheduling/partitioning reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one benchmark")
    _add_common(p_run)
    _add_exec_group(p_run)
    _add_telemetry_group(p_run)
    p_run.add_argument(
        "--config", default="baseline", choices=sorted(CONFIGS),
        help="named machine configuration (default: baseline)",
    )
    from .tenancy import PARTITION_MODES as _PARTITION_MODES

    tgroup = p_run.add_argument_group("multi-tenant")
    tgroup.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="co-schedule N tenants on one GPU (2-8; 1 reproduces the "
             "single-tenant run bit-for-bit) and print per-tenant "
             "IPC/slowdown/fairness isolation metrics",
    )
    tgroup.add_argument(
        "--partition-mode", default="exclusive", dest="partition_mode",
        choices=list(_PARTITION_MODES),
        help="resource partitioning: 'exclusive' (MIG-style SM+TLB+memory "
             "slices), 'shared-tlb' (ASID-tagged shared TLBs), "
             "'sub-entry' (tag-shared TLB entries with per-ASID "
             "sub-entries; arXiv 2404.18361)",
    )
    tgroup.add_argument(
        "--tenant-mix", nargs="+", default=None, choices=BENCHMARKS,
        dest="tenant_mix", metavar="BENCH",
        help="workloads for the tenants (cycled to N tenants; default: "
             "every tenant runs the positional benchmark)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare configurations")
    _add_common(p_cmp)
    _add_exec_group(p_cmp)
    _add_telemetry_group(p_cmp)
    p_cmp.add_argument(
        "--configs", nargs="+", default=["baseline", "partition_sharing"],
        choices=sorted(CONFIGS),
    )
    p_cmp.add_argument(
        "--specs", nargs="+", default=None, metavar="SPEC",
        help="compare 'dimension=component,...' spec strings instead "
             "of named configs (e.g. '' compress=contiguity "
             "pagesize=mosaic,compress=contiguity); see 'repro list' for "
             "the component table; first row is the normalization base",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="regenerate all tables/figures")
    p_rep.add_argument("--scale", default="small", choices=sorted(SCALES))
    p_rep.add_argument("--seed", type=int, default=0)
    _add_exec_group(p_rep)
    p_rep.add_argument("--write", action="store_true",
                       help="write EXPERIMENTS.md")
    p_rep.add_argument("--strict", action="store_true",
                       help="abort on first failed cell instead of degrading")
    p_rep.add_argument("--benchmarks", nargs="+", default=None,
                       choices=BENCHMARKS, metavar="BENCH",
                       help="restrict the sweep to these benchmarks")
    p_rep.add_argument("--plan", action="store_true",
                       help="print the sweep's cell count (and how many a "
                            "--resume restores) and exit without simulating")
    p_rep.set_defaults(func=cmd_report)

    p_chk = sub.add_parser(
        "check",
        help="differential self-checks + golden regression gate",
    )
    p_chk.add_argument("--scale", default="micro", choices=sorted(SCALES),
                       help="workload scale for the suites and goldens "
                            "(default: micro)")
    p_chk.add_argument("--seed", type=int, default=0)
    from .sanitizer.selfcheck import SUITES as _SUITES

    p_chk.add_argument("--suites", nargs="+", default=None,
                       choices=sorted(_SUITES), metavar="SUITE",
                       help="run only these self-check suites "
                            f"(available: {', '.join(sorted(_SUITES))})")
    p_chk.add_argument("--goldens", default=None, metavar="PATH",
                       help="golden file (default: tools/goldens/<scale>.json)")
    p_chk.add_argument("--update-goldens", action="store_true",
                       dest="update_goldens",
                       help="regenerate the golden file from the current "
                            "simulator instead of gating against it")
    p_chk.add_argument("--skip-goldens", action="store_true",
                       dest="skip_goldens",
                       help="run only the self-check suites")
    p_chk.add_argument("--goldens-only", action="store_true",
                       dest="goldens_only",
                       help="run only the golden gate")
    p_chk.set_defaults(func=cmd_check)

    p_trace = sub.add_parser(
        "trace", help="summarize a Chrome trace written by --trace"
    )
    p_trace.add_argument("file", help="trace-event JSON file")
    p_trace.add_argument("--top", type=int, default=5,
                         help="rows in the top-N tables (default: 5)")
    p_trace.set_defaults(func=cmd_trace)

    p_list = sub.add_parser("list", help="list benchmarks, configs and scales")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(
            json.dumps(
                {
                    "error": classify(exc),
                    "message": str(exc).splitlines()[0],
                    "exit_code": exc.exit_code,
                }
            ),
            file=sys.stderr,
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
