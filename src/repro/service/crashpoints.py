"""Systematic crash-point exploration for the sweep service.

"Crash-safe" is a universally-quantified claim: *whatever instant the
process dies, recovery yields a consistent queue*.  The chaos CI jobs
sample that space with a handful of well-aimed ``kill -9``s; this
module enumerates it.

The explorer runs one **scripted session** — submit two cells, submit
one of them again (the idempotent duplicate), serve the queue with
canned deterministic results, submit a finished cell a third time,
snapshot-compact — through a recording
:class:`~repro.engine.storage.Storage` shim, which yields the exact
sequence of mutating storage operations (journal appends and fsyncs,
result-cache writes, snapshot renames, ...).  It then replays the
session once per mutating-op boundary with a shim configured to
"crash" — raise :class:`~repro.engine.storage.SimulatedCrash`, the
in-process stand-in for SIGKILL — immediately before that operation
(or mid-write, leaving a torn file, with ``torn=True``), and audits
recovery of the survivor directory:

* the journal replays into a consistent queue (``recover()`` passes
  :func:`~repro.service.invariants.check_service_invariants` after
  reclaiming orphaned leases);
* replaying the journal twice reduces to the *identical* state
  (replay is a pure function of the log);
* no job the script saw acknowledged durably before the crash is lost
  — an acked submit is still queued (or further along), an acked DONE
  still carries its result;
* no job is DONE twice in the surviving log;
* every surviving result-cache entry is byte-identical to the
  crash-free session's entry — torn cache writes must be invisible
  (atomic-write discipline), a missing entry is legal (the cache is an
  optimization; the journal's DONE record is authoritative).

Because the crash is an in-process ``BaseException`` and the canned
results avoid worker subprocesses entirely, exploring every boundary
of the scripted session costs well under a second — cheap enough for
a CI smoke (``repro crash-explore --budget N`` samples N evenly-spaced
boundaries).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine.errors import SimulationError
from ..engine.storage import SimulatedCrash, Storage, StorageOp
from ..engine.supervision import CellSpec, Supervisor
from .journal import JOURNAL_NAME, Journal
from .pool import SweepService
from .results import RESULTS_DIR
from .state import DONE, QueueState

#: the scripted session's sweep cells (benchmark, config) — two real
#: Table II workloads under the baseline config, so job ids, config
#: hashes, and idempotency keys are all production-shaped
SCRIPT_JOBS: Tuple[Tuple[str, str], ...] = (
    ("bfs", "baseline"),
    ("atax", "baseline"),
)


def canned_result(benchmark: str, config_tag: str) -> Dict[str, Any]:
    """Deterministic stand-in for a simulated cell's result payload."""
    return {
        "benchmark": benchmark,
        "config": config_tag,
        "cycles": float(1000 + 13 * len(benchmark)),
        "walks": float(7 * len(config_tag)),
    }


class _ScriptedService(SweepService):
    """SweepService that runs the protocol but never simulates.

    Overrides the :meth:`~repro.service.pool.SweepService._execute_cell`
    seam with :func:`canned_result`, so every journaled transition,
    lease, cache write, and compaction is the real code path at a tiny,
    deterministic cost.  ``on_ack`` observes each durably-acknowledged
    ``submit``/``done`` record the instant its journal append returns.
    """

    def __init__(
        self,
        *args: Any,
        on_ack: Optional[Callable[[str, Dict[str, Any]], None]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._on_ack = on_ack

    def _execute_cell(
        self, supervisor: Supervisor, spec: CellSpec
    ) -> Dict[str, Any]:
        return canned_result(spec.benchmark, spec.config_tag)

    def _journal(self, rtype: str, payload: Dict[str, Any]) -> None:
        super()._journal(rtype, payload)
        if self._on_ack is not None and rtype in ("submit", "done"):
            self._on_ack(rtype, payload)


def _run_script(service: SweepService) -> None:
    """One scripted daemon session (see module docstring)."""
    service.recover()
    for benchmark, config_name in SCRIPT_JOBS:
        service.submit(benchmark, config_name)
    # duplicate idempotent submit of a queued cell: joins, no record
    service.submit(*SCRIPT_JOBS[0])
    service.run()
    # duplicate submit of a *finished* cell: still the same DONE job
    service.submit(*SCRIPT_JOBS[0])
    service.compact_now(force=True)
    service.close()


@dataclass
class AckFact:
    """One durably-acknowledged transition from the record pass.

    ``mutating_ops`` is how many mutating storage operations had
    completed when the acknowledgment returned; a crash at boundary
    ``i`` (which executes exactly ops ``0..i-1``) preserves the fact
    iff ``mutating_ops <= i``.
    """

    rtype: str
    job_id: str
    mutating_ops: int
    result: Optional[Dict[str, Any]] = None


@dataclass
class CrashPointOutcome:
    """Audit verdict for one crash boundary (empty problems == pass)."""

    index: int
    crashed: bool = True
    problems: List[str] = field(default_factory=list)


@dataclass
class CrashReport:
    """Everything ``repro crash-explore`` learned about one session."""

    base_dir: str
    scale: str
    seed: int
    torn: bool
    total_ops: int = 0
    mutating_ops: int = 0
    outcomes: List[CrashPointOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[CrashPointOutcome]:
        return [o for o in self.outcomes if o.problems]

    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        mode = "torn-write" if self.torn else "boundary"
        lines = [
            f"session          {len(SCRIPT_JOBS)} cells, "
            f"{self.total_ops} storage ops "
            f"({self.mutating_ops} mutating) at scale={self.scale} "
            f"seed={self.seed}",
            f"crash points     {len(self.outcomes)} explored "
            f"({mode} mode) under {self.base_dir}",
        ]
        for outcome in self.failures:
            for problem in outcome.problems:
                lines.append(f"FAIL point {outcome.index:>4}  {problem}")
        lines.append(
            "verdict          "
            + (
                "all invariants held at every crash point"
                if self.ok()
                else f"{len(self.failures)} crash point(s) violated "
                f"recovery invariants"
            )
        )
        return lines


def _make_service(
    directory: str,
    scale: str,
    seed: int,
    storage: Storage,
    on_ack: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> _ScriptedService:
    return _ScriptedService(
        directory,
        scale=scale,
        seed=seed,
        compact_after=10_000,  # only the script's explicit compaction
        storage=storage,
        on_ack=on_ack,
    )


def _snapshot_of(records: List[Dict[str, Any]]) -> str:
    state = QueueState()
    for record in records:
        state.apply(record)
    return json.dumps(state.snapshot_payload(), sort_keys=True)


def _read_cache_files(directory: str) -> Dict[str, bytes]:
    results_dir = os.path.join(directory, RESULTS_DIR)
    files: Dict[str, bytes] = {}
    try:
        names = os.listdir(results_dir)
    except OSError:
        return files
    for name in names:
        with open(os.path.join(results_dir, name), "rb") as handle:
            files[name] = handle.read()
    return files


def _audit(
    directory: str,
    index: int,
    facts: List[AckFact],
    expected_cache: Dict[str, bytes],
    scale: str,
    seed: int,
) -> List[str]:
    """Recover the survivor directory; return invariant violations."""
    problems: List[str] = []
    service = SweepService(
        directory, scale=scale, seed=seed, storage=Storage()
    )
    try:
        # full (non-readonly) recovery: replays the log, reclaims the
        # crashed incarnation's leases, and runs the service-invariant
        # sweep (state/lease/breaker consistency) before returning
        service.recover()
    except SimulationError as exc:
        return [f"recovery failed: {exc}"]
    finally:
        service.close()

    # replay is a pure function of the log: two independent replays
    # must reduce to the identical queue state
    journal = Journal(
        os.path.join(directory, JOURNAL_NAME), scale=scale, seed=seed
    )
    try:
        records = journal.replay()
        again = journal.replay()
    except SimulationError as exc:
        return [f"post-recovery replay failed: {exc}"]
    finally:
        journal.close()
    if _snapshot_of(records) != _snapshot_of(again):
        problems.append("journal replay is not deterministic")

    # at most one DONE per job in the surviving log
    done_counts: Dict[str, int] = {}
    for record in records:
        if record["type"] == "done":
            job_id = record["payload"]["job_id"]
            done_counts[job_id] = done_counts.get(job_id, 0) + 1
    for job_id, count in sorted(done_counts.items()):
        if count > 1:
            problems.append(f"job {job_id!r} is DONE {count} times")

    # durably-acknowledged facts must survive the crash
    for fact in facts:
        if fact.mutating_ops > index:
            continue  # acked only after the crashed op: may be lost
        job = service.state.jobs.get(fact.job_id)
        if job is None:
            problems.append(
                f"acked {fact.rtype} of {fact.job_id!r} lost "
                f"(durable after op {fact.mutating_ops})"
            )
            continue
        if fact.rtype == "done":
            if job.state != DONE:
                problems.append(
                    f"acked DONE job {fact.job_id!r} recovered as "
                    f"{job.state} (durable after op {fact.mutating_ops})"
                )
            elif job.result != fact.result:
                problems.append(
                    f"acked DONE job {fact.job_id!r} recovered with a "
                    f"different result payload"
                )

    # every surviving cache entry is byte-identical to the crash-free
    # session's entry; anything else in results/ is a torn artifact
    for name, blob in sorted(_read_cache_files(directory).items()):
        if name not in expected_cache:
            problems.append(f"unexpected result-cache file {name!r}")
        elif blob != expected_cache[name]:
            problems.append(
                f"result-cache file {name!r} is not byte-identical "
                f"to the crash-free session's entry"
            )
    return problems


def explore(
    base_dir: Optional[str] = None,
    scale: str = "micro",
    seed: int = 7,
    budget: Optional[int] = None,
    torn: bool = False,
) -> CrashReport:
    """Enumerate and audit every crash boundary of the scripted session.

    ``budget`` caps the number of boundaries explored (evenly spaced
    across the session — first and last always included), bounding CI
    smoke cost.  ``torn`` crashes *mid-write* (half the payload on
    disk) instead of cleanly before the operation, exercising the
    torn-tail/atomic-rename salvage paths.
    """
    if base_dir is None:
        base_dir = tempfile.mkdtemp(prefix="repro-crashpoints-")
    os.makedirs(base_dir, exist_ok=True)
    report = CrashReport(
        base_dir=base_dir, scale=scale, seed=seed, torn=torn
    )

    # ---- record pass: crash-free session through a recording shim --- #
    ops: List[StorageOp] = []
    recorder = Storage(record=ops.append)
    facts: List[AckFact] = []

    def on_ack(rtype: str, payload: Dict[str, Any]) -> None:
        job_id = (
            payload["job_id"]
            if "job_id" in payload
            else payload["job"]["job_id"]
        )
        facts.append(
            AckFact(
                rtype=rtype,
                job_id=job_id,
                # the append's own write+fsync have completed by now
                mutating_ops=recorder._mutating_index,
                result=payload.get("result"),
            )
        )

    record_dir = os.path.join(base_dir, "record")
    _run_script(
        _make_service(record_dir, scale, seed, recorder, on_ack=on_ack)
    )
    report.total_ops = recorder._op_index
    report.mutating_ops = recorder._mutating_index
    expected_cache = _read_cache_files(record_dir)

    # ---- crash passes: one boundary at a time, then audit ----------- #
    indexes = list(range(report.mutating_ops))
    if budget is not None and 0 < budget < len(indexes):
        last = len(indexes) - 1
        indexes = sorted(
            {round(k * last / (budget - 1)) for k in range(budget)}
            if budget > 1
            else {0}
        )
    for index in indexes:
        outcome = CrashPointOutcome(index=index)
        point_dir = os.path.join(base_dir, f"point-{index:04d}")

        def _crash() -> None:
            raise SimulatedCrash(f"injected crash at boundary {index}")

        shim = Storage(crash=_crash, crash_at_op=index, crash_torn=torn)
        service = _make_service(point_dir, scale, seed, shim)
        try:
            _run_script(service)
            outcome.crashed = False
            outcome.problems.append(
                "crash point never fired (session completed)"
            )
        except SimulatedCrash:
            pass
        finally:
            with contextlib.suppress(Exception):
                service.close()
        if outcome.crashed:
            outcome.problems.extend(
                _audit(
                    point_dir, index, facts, expected_cache, scale, seed
                )
            )
        report.outcomes.append(outcome)
    return report
