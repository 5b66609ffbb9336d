"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one benchmark under a named configuration;
  ``--tenants N --partition-mode {exclusive,shared-tlb,sub-entry}``
  co-schedules N tenants on one GPU and prints per-tenant isolation
  metrics (IPC, slowdown vs solo, Jain fairness, TLB cross-pollution);
* ``compare`` — run a benchmark across several configurations;
* ``report`` — regenerate every table/figure (writes EXPERIMENTS.md
  with ``--write``);
* ``check`` — differential self-check suites plus the golden-result
  regression gate (``--update-goldens`` to re-pin after an intentional
  result change);
* ``trace`` — summarize a Chrome trace file written by ``--trace``;
* ``list`` — show available benchmarks, configurations, and scales;
* ``submit`` — enqueue sweep cells as jobs in a crash-safe service
  directory (admission-controlled: load is shed beyond the queue's
  high watermark);
* ``serve`` — run the WAL-journaled worker pool until the queue is
  idle; SIGINT/SIGTERM drains leases, flushes telemetry, and journals
  a clean shutdown; ``kill -9`` + restart recovers losslessly.
  ``serve --daemon`` keeps serving a Unix-domain socket for multiple
  concurrent clients (length-prefixed JSON protocol, see
  :mod:`repro.service.protocol`), with priorities, per-request
  deadlines, idempotent retries, and a content-addressed result cache;
* ``status`` — queue depths, breaker states, lease ages, backpressure
  (``--check-goldens`` gates recovered results against a golden file;
  ``--daemon`` asks a live daemon instead of replaying the journal);
* ``cancel`` / ``wait`` — cancel one job / block until a job is
  terminal, through a live daemon;
* ``crash-explore`` — replay a scripted service session, crashing at
  every mutating storage-operation boundary (``--torn`` crashes
  mid-write), and audit that recovery holds every crash-consistency
  invariant (no acked job lost, no duplicate DONE, deterministic
  replay, byte-identical-or-absent result cache).

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
sanitizer=9, quarantined=10, admission=11, journal=12, interrupted=13,
protocol=14, deadline=15, cancelled=16) and prints a single
machine-readable JSON line on stderr, e.g.::

    {"error": "livelock", "message": "...", "exit_code": 5}

``run`` and ``compare`` install two-stage signal handling: the first
SIGINT/SIGTERM triggers a graceful drain (final checkpoint + trace
flush, unfinished cells degrade to ``FAILED(interrupted)``, exit 13);
a second signal hard-exits with ``128 + signum``.

``--timeout`` runs cells in supervised subprocess workers with a
wall-clock watchdog; ``report --checkpoint/--resume`` makes a long
sweep restartable.  ``REPRO_FAULT=bench:config:kind[:times]`` injects
deterministic faults for testing the degradation path, and
``REPRO_FAULT=disk:<layer>:<kind>[:<nth-op>]`` injects *disk* faults
(``enospc``/``eio``/``fsync``/``torn``/``crash``) into a named
persistence layer (``journal``/``results``/``checkpoint``/``goldens``/
``manifest``/``atomic``, or ``*``) through the storage shim;
``--sanitize[=strict|cheap]`` (or ``REPRO_SANITIZE``) enables runtime
invariant checking, and ``REPRO_SANITIZE_INJECT=<tag>`` deliberately
breaks one invariant to prove the checker fires.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine.errors import (
    AdmissionError,
    ConfigError,
    InterruptedRunError,
    SimulationError,
    classify,
)
from .engine.faults import FaultPlan
from .engine.interrupt import GracefulInterrupt
from .experiments.configs import CONFIGS
from .experiments.runner import ExperimentRunner
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
        help="wall-clock budget per cell; runs each cell in a supervised "
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
             "integrated in submission order; default: 1, sequential)",
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
        parallel=max(1, getattr(args, "parallel", 1) or 1),
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


def _run_tenancy(args: argparse.Namespace) -> int:
    """``repro run --tenants N``: co-schedule N tenants on one GPU and
    print per-tenant isolation/interference metrics."""
    from .experiments.configs import get_config
    from .experiments.tenancy import run_tenancy_cell
    from .telemetry import TelemetrySettings
    from .tenancy import TenancySpec, expand_mix, parse_partition_mode

    if args.checkpoint or args.resume:
        raise ConfigError(
            "--tenants runs are not checkpointable yet; drop "
            "--checkpoint/--resume"
        )
    tenants = (
        args.tenants if args.tenants is not None else len(args.tenant_mix)
    )
    mix = expand_mix(args.benchmark, tenants, args.tenant_mix)
    mode = parse_partition_mode(args.partition_mode)
    spec = TenancySpec(mix=mix, mode=mode, scale=args.scale, seed=args.seed)
    telemetry = None
    if args.trace is not None or args.sample_every is not None:
        telemetry = TelemetrySettings(
            trace_path=args.trace, sample_every=args.sample_every
        )
    result = run_tenancy_cell(
        spec,
        get_config(args.config),
        config_tag=args.config,
        sanitize=args.sanitize,
        telemetry=telemetry,
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
    if args.trace is not None:
        print(f"trace            {args.trace}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.tenants is not None or args.tenant_mix:
        return _run_tenancy(args)
    runner = _make_runner(args)
    with GracefulInterrupt() as interrupt:
        try:
            result = runner.run(args.benchmark, args.config)
        except InterruptedRunError:
            _drain_runner(runner, interrupt)
            print(
                f"{args.benchmark}/{args.config}: FAILED(interrupted)",
                file=sys.stderr,
            )
            raise
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
    if result.timeseries is not None:
        print(f"samples          {len(result.timeseries['cycles'])} "
              f"(every {result.timeseries['interval']} cycles)")
    _finish_runner(runner)
    return 0


_COMPARE_HEADER = (
    f"{'config':20s} {'L1 hit':>8s} {'cycles':>12s} {'norm.':>7s}"
)


def _compare_row(name: str, result, base: Optional[float]) -> str:
    return (
        f"{name:20s} {result.avg_l1_tlb_hit_rate:8.3f} "
        f"{result.cycles:12.0f} "
        f"{result.cycles / (base or result.cycles):7.3f}"
    )


def cmd_compare(args: argparse.Namespace) -> int:
    if args.specs and (args.service or args.service_dir):
        raise ConfigError(
            "--specs resolves registry spec strings inline; the sweep "
            "service queue only knows named configurations (--configs)"
        )
    if args.service or args.service_dir:
        return _compare_via_service(args)
    runner = _make_runner(args)
    if args.specs:
        # resolve every spec up front: a typo fails with exit code 3
        # before any cell simulates
        from .translation.registry import default_registry

        registry = default_registry()
        names = [spec or "registry-default" for spec in args.specs]
        cells = [
            (name, registry.resolve(spec))
            for name, spec in zip(names, args.specs)
        ]
    else:
        names = list(args.configs)
        cells = None
    base = None
    print(_COMPARE_HEADER)
    with GracefulInterrupt() as interrupt:
        i = 0
        try:
            if runner.parallel > 1 and cells is None:
                runner.prefetch([(args.benchmark, n) for n in names])
            for i, name in enumerate(names):
                if cells is not None:
                    result = runner.run_config(
                        args.benchmark, cells[i][1], name
                    )
                else:
                    result = runner.run(args.benchmark, name)
                if base is None:
                    base = result.cycles
                print(_compare_row(name, result, base))
        except InterruptedRunError:
            # the interrupted cell and everything after it degrade to
            # FAILED(interrupted) rows; finished rows already printed
            for name in names[i:]:
                print(f"{name:20s} {'FAILED(interrupted)':>8s}")
            _drain_runner(runner, interrupt)
            raise
    _finish_runner(runner)
    return 0


def _compare_via_service(args: argparse.Namespace) -> int:
    """``compare --service``: route the cells through the job queue.

    Submissions are idempotent, every transition is journaled, and an
    interrupted run exits 13 with the queue intact — re-running the
    same command resumes exactly where the drain stopped.
    """
    from .arch.gpu import RunResult
    from .service import DONE

    if args.trace or args.sample_every:
        raise ConfigError(
            "--service runs cells through supervised queue workers; "
            "--trace/--sample-every are only available on the inline path"
        )
    service = _make_service(args)
    try:
        service.recover()
        for name in args.configs:
            service.submit(args.benchmark, name)
        with GracefulInterrupt(raising=False) as interrupt:
            service.run(interrupt)
            interrupted = interrupt.requested
        base = None
        print(_COMPARE_HEADER)
        jobs = service.state.results()
        for name in args.configs:
            job = jobs.get((args.benchmark, name))
            if job is not None and job.state == DONE:
                result = RunResult.from_dict(job.result)
                if base is None:
                    base = result.cycles
                print(_compare_row(name, result, base))
            else:
                marker = job.marker if job is not None else "MISSING"
                print(f"{name:20s} {marker:>8s}")
        pending = len(service.state.pending())
    finally:
        service.close()
    if interrupted and pending:
        raise InterruptedRunError(
            f"compare --service drained with {pending} job(s) still "
            f"queued; re-run the same command to resume"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments import report

    _default_resume_path(args)
    argv = [args.scale]
    if args.write:
        argv.append("--write")
    if args.timeout is not None:
        argv.extend(["--timeout", str(args.timeout)])
    if args.checkpoint is not None:
        argv.extend(["--checkpoint", args.checkpoint])
    if args.resume:
        argv.append("--resume")
    if args.strict:
        argv.append("--strict")
    if args.benchmarks:
        argv.extend(["--benchmarks"] + args.benchmarks)
    if args.sanitize is not None:
        argv.extend(["--sanitize", args.sanitize])
    if getattr(args, "parallel", 1) and args.parallel > 1:
        argv.extend(["--parallel", str(args.parallel)])
    return report.main(argv)


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


def cmd_bench(args: argparse.Namespace) -> int:
    """Pinned micro/meso benchmarks + BENCH_*.json trajectory point."""
    from .bench import (
        compare_to_baseline,
        format_results,
        load_report,
        run_benches,
        write_report,
    )

    results = run_benches(
        names=args.benches,
        trials=args.trials,
        quick=args.quick,
        progress=lambda name: print(f"[bench] {name}", flush=True),
    )
    speedups = None
    if args.baseline:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        if baseline.get("quick") != args.quick:
            print(
                f"baseline {args.baseline!r} was recorded with "
                f"quick={baseline.get('quick')}; rerun with matching "
                f"sizes for an honest comparison", file=sys.stderr,
            )
            return 2
        speedups = compare_to_baseline(results, baseline)
    print(format_results(results, speedups))
    out = args.out or f"BENCH_{args.tag}.json"
    write_report(out, results, trials=args.trials, quick=args.quick,
                 tag=args.tag)
    print(f"report           {out}")
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
    from .translation.registry import ZOO_SPECS, default_registry

    print("\ntranslation-policy registry (compare --specs "
          "'dim=component,...'):")
    for line in default_registry().describe():
        print(f"  {line}")
    print("\nzoo ablation matrix (report 'Ext: translation zoo'):")
    for name, spec in ZOO_SPECS.items():
        print(f"  {name:16s} {spec or '(registry defaults)'}")
    print("\nscales:")
    for name, scale in sorted(SCALES.items(), key=lambda kv: kv[1].size_factor):
        print(f"  {name:6s} size x{scale.size_factor:g}, "
              f"up to {scale.max_tbs} traced TBs")
    return 0


def _service_dir(args: argparse.Namespace) -> str:
    return getattr(args, "service_dir", None) or (
        f".repro_service.{args.scale}"
    )


def _make_service(args: argparse.Namespace):
    """Build a SweepService from (possibly partial) CLI flags."""
    from .engine.supervision import RetryPolicy
    from .service import AdmissionPolicy, BreakerPolicy, SweepService

    admission = AdmissionPolicy(
        max_depth=getattr(args, "max_depth", 256),
        high_watermark=getattr(args, "high_watermark", 64),
        low_watermark=getattr(args, "low_watermark", 32),
    )
    breaker = BreakerPolicy(
        window=getattr(args, "breaker_window", 8),
        failure_threshold=getattr(args, "breaker_threshold", 3),
        cooldown=getattr(args, "breaker_cooldown", 2),
    )
    retry = RetryPolicy(
        max_attempts=getattr(args, "retries", 3),
        jitter=getattr(args, "retry_jitter", 0.1),
    )
    return SweepService(
        _service_dir(args),
        scale=args.scale,
        seed=args.seed,
        timeout=getattr(args, "timeout", None),
        retry=retry,
        fault_plan=FaultPlan.from_env(),
        sanitize=getattr(args, "sanitize", None),
        admission=admission,
        breaker_policy=breaker,
        lease_ttl=getattr(args, "lease_ttl", 60.0),
        compact_after=getattr(args, "compact_after", 256),
        cache_bytes=getattr(args, "cache_bytes", None),
    )


def _make_client(args: argparse.Namespace):
    """Build a DaemonClient from CLI flags (daemon paths only)."""
    from .service import DaemonClient

    return DaemonClient(
        _service_dir(args),
        socket_path=getattr(args, "socket", None),
        timeout=getattr(args, "client_timeout", 10.0),
    )


def _submit_via_daemon(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        for benchmark in args.benchmarks:
            for name in args.configs:
                response = client.submit(
                    benchmark,
                    name,
                    priority=getattr(args, "priority", 0),
                    deadline=getattr(args, "deadline", None),
                )
                source = " (cached)" if response.get("cached") else ""
                print(f"submitted        {response['job_id']} "
                      f"[{response['state'].lower()}]{source}")
                if args.wait and not response.get("cached"):
                    done = client.wait(job_id=response["job_id"])
                    print(f"done             {done['job_id']} "
                          f"cycles={done['result'].get('cycles'):.0f}")
        depths = client.status()["depths"]
        print("queue            "
              + " ".join(f"{s.lower()}={n}" for s, n in depths.items()))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    if args.daemon:
        return _submit_via_daemon(args)
    service = _make_service(args)
    shed: Optional[AdmissionError] = None
    try:
        service.recover()
        for benchmark in args.benchmarks:
            for name in args.configs:
                try:
                    job = service.submit(
                        benchmark,
                        name,
                        priority=getattr(args, "priority", 0),
                        deadline=getattr(args, "deadline", None),
                    )
                except AdmissionError as exc:
                    print(f"shed             {benchmark}:{name} "
                          f"({exc})", file=sys.stderr)
                    shed = exc
                else:
                    print(f"submitted        {job.job_id} "
                          f"[{job.state.lower()}]")
        depths = service.state.depths()
        print("queue            "
              + " ".join(f"{s.lower()}={n}" for s, n in depths.items()))
    finally:
        service.close()
    if shed is not None:
        raise shed  # admission refusals surface as exit 11
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    service = _make_service(args)
    try:
        reclaimed = service.recover()
        if reclaimed:
            print(f"reclaimed        {reclaimed} stale lease(s)")
        # raising=False: the pool loop polls interrupt.requested after
        # each job, so the in-flight lease is honoured and the shutdown
        # record is journaled on the normal path
        with GracefulInterrupt(raising=False) as interrupt:
            if args.daemon:
                from .service import SweepDaemon

                daemon = SweepDaemon(
                    service,
                    socket_path=getattr(args, "socket", None),
                    client_ttl=getattr(args, "client_ttl", 30.0),
                )
                print(f"listening        {daemon.socket_path}", flush=True)
                depths = daemon.serve_forever(interrupt)
            else:
                depths = service.run(interrupt)
            drained = interrupt.requested
        print("queue            "
              + " ".join(f"{s.lower()}={n}" for s, n in depths.items()))
        counters = " ".join(
            f"{k}={v}" for k, v in service.state.counters.items()
        )
        print(f"counters         {counters}")
        if drained:
            print(f"drained          {len(service.state.pending())} "
                  f"job(s) left queued for the next incarnation")
    finally:
        service.close()
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        response = client.cancel(args.job_id)
        print(f"cancel           {response['job_id']} "
              f"[{response['state'].lower()}]")
    return 0


def cmd_wait(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        response = client.wait(
            job_id=args.job_id, deadline=args.deadline
        )
        result = response.get("result", {})
        source = " (cached)" if response.get("cached") else ""
        print(f"done             {response['job_id']}{source} "
              f"cycles={result.get('cycles'):.0f}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import os

    from .engine.errors import JournalError
    from .service import JOURNAL_NAME, Journal, SweepService

    if getattr(args, "daemon", False):
        with _make_client(args) as client:
            stats = client.stats()
        print(f"service          {_service_dir(args)} (live daemon)")
        depths = stats["depths"]
        print("queue            "
              + " ".join(f"{s.lower()}={n}" for s, n in depths.items()))
        print("counters         " + " ".join(
            f"{k}={v}" for k, v in stats["counters"].items()
        ))
        cache = stats["cache"]
        print("result cache     " + " ".join(
            f"{k}={v}" for k, v in cache.items()
        ))
        print(f"clients          {stats['clients']} connected, "
              f"{stats['evicted']} evicted, "
              f"{stats['rejected_frames']} rejected frame(s), "
              f"{stats['requests_served']} request(s) served")
        return 0
    directory = _service_dir(args)
    journal_path = os.path.join(directory, JOURNAL_NAME)
    header = Journal.peek_header(journal_path)
    if header is None:
        # a missing or unreadably-corrupt journal is a journal-class
        # failure: one diagnostic line on stderr, exit 12 — never a
        # traceback (the torn-tail case is tolerated inside replay())
        detail = (
            "no journal found"
            if not os.path.exists(journal_path)
            else "journal header unreadable or corrupt"
        )
        raise JournalError(f"{journal_path}: {detail}")
    # bind to the journal's own identity: status must never replay a
    # journal under a different (scale, seed) than it was written with
    service = SweepService(
        directory,
        scale=header.get("scale", args.scale),
        seed=header.get("seed", args.seed),
    )
    service.recover(readonly=True)
    print(f"service          {directory} "
          f"(scale={service.scale}, seed={service.seed})")
    for line in service.status_lines():
        print(line)
    if args.check_goldens:
        passed, lines = service.golden_gate(args.check_goldens)
        mark = "PASS" if passed else "FAIL"
        for line in lines:
            print(f"[{mark}] goldens: {line}")
        return 0 if passed else 1
    return 0


def cmd_crash_explore(args: argparse.Namespace) -> int:
    from .service.crashpoints import explore

    report = explore(
        base_dir=args.dir,
        scale=args.scale,
        seed=args.seed,
        budget=args.budget,
        torn=args.torn,
    )
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok() else 1


def _add_daemon_group(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("daemon")
    group.add_argument(
        "--daemon", action="store_true",
        help="talk to (or, for serve, run) a multi-client daemon over "
             "a Unix-domain socket instead of the single-shot path",
    )
    group.add_argument(
        "--socket", default=None, metavar="PATH",
        help="socket path (default: <service-dir>/daemon.sock)",
    )
    group.add_argument(
        "--client-timeout", type=float, default=10.0,
        dest="client_timeout", metavar="SECONDS",
        help="per-request socket timeout before the client reconnects "
             "and retries (idempotent by key)",
    )


def _add_service_group(
    parser: argparse.ArgumentParser, admission: bool = True
) -> "argparse._ArgumentGroup":
    group = parser.add_argument_group("sweep service")
    group.add_argument(
        "--service-dir", default=None, metavar="DIR", dest="service_dir",
        help="service directory holding the journal "
             "(default: .repro_service.<scale>)",
    )
    if not admission:
        return group
    group.add_argument(
        "--max-depth", type=int, default=256, dest="max_depth",
        help="hard queue-depth cap; submissions beyond it are shed",
    )
    group.add_argument(
        "--high-watermark", type=int, default=64, dest="high_watermark",
        help="depth at which admission starts shedding (hysteresis "
             "releases at --low-watermark)",
    )
    group.add_argument(
        "--low-watermark", type=int, default=32, dest="low_watermark",
        help="depth at which backpressure releases",
    )
    return group


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
        help="compare translation-registry spec strings instead of named "
             "configs (e.g. '' compress=contiguity "
             "pagesize=mosaic,compress=contiguity); see 'repro list' for "
             "the dimension=component table; first row is the "
             "normalization base",
    )
    p_cmp.add_argument(
        "--service", action="store_true",
        help="route the cells through the crash-safe sweep service "
             "queue (journaled, resumable after kill -9)",
    )
    _add_service_group(p_cmp, admission=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="regenerate all tables/figures")
    p_rep.add_argument("--scale", default="small", choices=sorted(SCALES))
    _add_exec_group(p_rep)
    p_rep.add_argument("--write", action="store_true",
                       help="write EXPERIMENTS.md")
    p_rep.add_argument("--strict", action="store_true",
                       help="abort on first failed cell instead of degrading")
    p_rep.add_argument("--benchmarks", nargs="+", default=None,
                       choices=BENCHMARKS, metavar="BENCH",
                       help="restrict the sweep to these benchmarks")
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

    p_bench = sub.add_parser(
        "bench",
        help="run the pinned perf benchmarks, write BENCH_<tag>.json",
    )
    from .bench import BENCHES as _BENCHES

    p_bench.add_argument(
        "--benches", nargs="+", default=None, metavar="BENCH",
        choices=sorted(_BENCHES),
        help="run only these benches (default: full pinned suite)",
    )
    p_bench.add_argument(
        "--trials", type=int, default=5, metavar="N",
        help="timed repetitions per bench after one warm-up (default: 5)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="shrink workload sizes ~10x (CI smoke; reports marked quick)",
    )
    p_bench.add_argument(
        "--tag", default="PR5", metavar="TAG",
        help="trajectory label; the report is BENCH_<tag>.json "
             "(default: PR5)",
    )
    p_bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="explicit report path (overrides --tag naming)",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against a recorded report "
             "(e.g. tools/goldens/bench_baseline.json)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_trace = sub.add_parser(
        "trace", help="summarize a Chrome trace written by --trace"
    )
    p_trace.add_argument("file", help="trace-event JSON file")
    p_trace.add_argument("--top", type=int, default=5,
                         help="rows in the top-N tables (default: 5)")
    p_trace.set_defaults(func=cmd_trace)

    p_sub = sub.add_parser(
        "submit",
        help="enqueue sweep cells into the crash-safe service queue",
    )
    p_sub.add_argument(
        "benchmarks", nargs="+", choices=BENCHMARKS, metavar="BENCH",
        help="Table II benchmark name(s)",
    )
    p_sub.add_argument(
        "--configs", nargs="+", default=["baseline"],
        choices=sorted(CONFIGS),
    )
    p_sub.add_argument("--scale", default="small", choices=sorted(SCALES))
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority (higher runs first; a strictly "
             "higher-priority job preempts a running lower one)",
    )
    p_sub.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; past it the job fails with "
             "FAILED(deadline) instead of being silently kept",
    )
    _add_service_group(p_sub)
    _add_daemon_group(p_sub)
    p_sub.add_argument(
        "--wait", action="store_true",
        help="with --daemon: block until each submitted job is terminal",
    )
    p_sub.set_defaults(func=cmd_submit)

    p_srv = sub.add_parser(
        "serve",
        help="run the WAL-journaled worker pool until the queue drains",
    )
    p_srv.add_argument("--scale", default="small", choices=sorted(SCALES))
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell (supervised workers)",
    )
    p_srv.add_argument(
        "--sanitize", nargs="?", const="strict", default=None,
        choices=["strict", "cheap", "off"], metavar="MODE",
        help="runtime invariant checking, including the service-queue "
             "invariants after every job",
    )
    p_srv.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="max attempts per cell before it fails terminally",
    )
    p_srv.add_argument(
        "--retry-jitter", type=float, default=0.1, dest="retry_jitter",
        metavar="FRACTION",
        help="max extra backoff as a fraction of the base delay; drawn "
             "deterministically from the run seed and cell identity",
    )
    p_srv.add_argument(
        "--lease-ttl", type=float, default=60.0, dest="lease_ttl",
        metavar="SECONDS",
        help="heartbeat TTL before a lease counts as stale",
    )
    p_srv.add_argument(
        "--compact-after", type=int, default=256, dest="compact_after",
        metavar="RECORDS",
        help="snapshot-compact the journal at shutdown once it holds "
             "this many records",
    )
    group = p_srv.add_argument_group("circuit breaker")
    group.add_argument(
        "--breaker-window", type=int, default=8, dest="breaker_window",
        help="sliding window of attempt outcomes per workload",
    )
    group.add_argument(
        "--breaker-threshold", type=int, default=3,
        dest="breaker_threshold",
        help="failures in the window that trip the breaker open",
    )
    group.add_argument(
        "--breaker-cooldown", type=int, default=2,
        dest="breaker_cooldown",
        help="denied jobs before an open breaker half-opens for a probe",
    )
    sgroup = _add_service_group(p_srv)
    sgroup.add_argument(
        "--cache-bytes", type=int, default=None, dest="cache_bytes",
        metavar="BYTES",
        help="bound the result cache: after each store, least-recently-"
             "used entries are evicted until it fits (default: "
             "unbounded)",
    )
    _add_daemon_group(p_srv)
    p_srv.add_argument(
        "--client-ttl", type=float, default=30.0, dest="client_ttl",
        metavar="SECONDS",
        help="with --daemon: evict clients idle past this TTL "
             "(heartbeat loss)",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_st = sub.add_parser(
        "status",
        help="queue depths, breaker states, lease ages, backpressure",
    )
    p_st.add_argument("--scale", default="small", choices=sorted(SCALES),
                      help="locates the default service directory; the "
                           "journal header overrides it")
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument(
        "--check-goldens", default=None, metavar="PATH",
        dest="check_goldens",
        help="gate the service's DONE results against this golden file "
             "(exit 1 on mismatch)",
    )
    _add_service_group(p_st, admission=False)
    _add_daemon_group(p_st)
    p_st.set_defaults(func=cmd_status)

    p_can = sub.add_parser(
        "cancel", help="cancel one job through a live daemon"
    )
    p_can.add_argument("job_id", help="job id (benchmark:config)")
    p_can.add_argument("--scale", default="small", choices=sorted(SCALES))
    _add_service_group(p_can, admission=False)
    _add_daemon_group(p_can)
    p_can.set_defaults(func=cmd_cancel)

    p_wait = sub.add_parser(
        "wait", help="block until a job is terminal (live daemon)"
    )
    p_wait.add_argument("job_id", help="job id (benchmark:config)")
    p_wait.add_argument("--scale", default="small", choices=sorted(SCALES))
    p_wait.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (exit 15; the job keeps "
             "running server-side)",
    )
    _add_service_group(p_wait, admission=False)
    _add_daemon_group(p_wait)
    p_wait.set_defaults(func=cmd_wait)

    p_cx = sub.add_parser(
        "crash-explore",
        help="crash a scripted service session at every storage-op "
             "boundary and audit recovery invariants",
    )
    p_cx.add_argument(
        "--scale", default="micro", choices=sorted(SCALES),
        help="workload scale baked into job identities (default: micro)",
    )
    p_cx.add_argument("--seed", type=int, default=7)
    p_cx.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="explore at most N evenly-spaced crash points instead of "
             "every boundary (CI smoke)",
    )
    p_cx.add_argument(
        "--torn", action="store_true",
        help="crash mid-write (half the payload on disk) instead of "
             "cleanly before the operation",
    )
    p_cx.add_argument(
        "--dir", default=None, metavar="DIR",
        help="directory for the per-crash-point service directories "
             "(default: a fresh temp directory, kept for inspection)",
    )
    p_cx.set_defaults(func=cmd_crash_explore)

    p_list = sub.add_parser("list", help="list benchmarks/configs/scales")
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
