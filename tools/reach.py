#!/usr/bin/env python3
"""Reach map: which ``src/`` functions some run enters, and from where.

Runs tier-1 and a fixed list of CLI commands (``RUNS``), each in its own
interpreter under ``sys.setprofile`` and ``threading.setprofile``.
Forked workers are followed: ``os.register_at_fork`` keeps the profile
running in the child, and the child writes its own record when it exits
(a ``multiprocessing.util.Finalize``, since a worker leaves through
``os._exit``).  Nothing under ``src/`` changes for this.

On each call into a ``src/`` function the profile walks ``f_back`` to
the nearest *project frame*, the first one whose file lies under
``src/``, ``perf/``, ``examples/`` or ``tests/``; the standard library,
pytest and this tool are skipped.  That frame's tree decides the entry:
``tests/`` makes it a test entry, the other three a production entry.
A stack with no project frame (a thread pool's task) takes the class of
its run: test under tier-1, production under a command.  Every ``src/``
function is then

* **unentered** -- no run entered it;
* **test-only** -- entered, but only from test frames;
* **production** -- entered at least once from a production frame.

The gate fails (exit 1) on an unentered function that is not on the
allowlist, and on an allowlist entry that no longer names an unentered
function.  ``tools/reach_allow.txt`` holds one entry per line,
``<path>::<qualname> <reason>``; an entry without a reason is refused
(exit 2), as is a run that exits with another status than expected.

    python tools/reach.py                     # every run, then the verdict
    python tools/reach.py --map reach.json    # also write the whole map

Tier-1 under the profile takes about three times its plain wall time;
the whole list takes about five minutes on two cores.
"""

from __future__ import annotations

import argparse
import atexit
import glob
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allow.txt")

#: what a frame's file says about the call it makes: outside the
#: project, under a production tree, under tests/, under src/ (the code
#: being mapped, also a production tree)
OUTSIDE, PRODUCTION, TEST, SRC = range(4)
TREES = (("src", SRC), ("perf", PRODUCTION), ("examples", PRODUCTION),
         ("tests", TEST))

#: compiler-made code objects that are not functions a reader deletes
_NOT_FUNCTIONS = {"<module>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_CO_NEWLOCALS = 0x0002

#: ``(path relative to the root, first line, name)``: one function
Key = Tuple[str, int, str]


@dataclass(frozen=True)
class Run:
    """One interpreter the map is taken over: ``argv`` is what follows
    ``python`` (``-m module ...`` or ``script ...``); files a command
    writes go to a scratch directory shared by every run."""

    name: str
    argv: Tuple[str, ...]
    production: bool = True
    in_root: bool = False
    env: Tuple[Tuple[str, str], ...] = ()
    exit_code: int = 0


def _repro(name: str, *args: str, **kwargs) -> Run:
    return Run(name, ("-m", "repro") + args, **kwargs)


#: tier-1, then the commands users and CI run, at micro scale
RUNS: Tuple[Run, ...] = (
    Run("tier-1", ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"),
        production=False, in_root=True),
    _repro("list", "list"),
    _repro("report", "report", "--scale", "micro"),
    _repro("report-plan", "report", "--scale", "micro", "--plan"),
    _repro("check", "check", "--scale", "micro"),
    _repro("run-sanitized-traced-sampled", "run", "bfs", "--scale", "micro",
           "--sanitize", "--trace", "trace.json", "--sample-every", "500"),
    _repro("trace", "trace", "trace.json"),
    _repro("run-tenants-sched", "run", "bfs", "--scale", "micro",
           "--tenants", "2", "--tenant-mix", "bfs", "gemm", "--config", "sched"),
    _repro("compare", "compare", "nw", "--scale", "micro",
           "--configs", "baseline", "partition_sharing"),
    _repro("compare-specs", "compare", "bfs", "--scale", "micro",
           "--sanitize", "--specs", "", "protect=deadentry",
           "pagesize=mosaic,compress=contiguity"),
    _repro("checkpoint", "report", "--scale", "micro", "--benchmarks", "nw",
           "--parallel", "2", "--checkpoint", "ck.jsonl"),
    _repro("resume", "report", "--scale", "micro", "--benchmarks", "nw",
           "--checkpoint", "ck.jsonl", "--resume"),
    _repro("injected-livelock", "run", "nw", "--scale", "micro",
           env=(("REPRO_FAULT", "nw:baseline:livelock"),), exit_code=5),
)


# ---------------------------------------------------------------------- #
# The functions under src/
# ---------------------------------------------------------------------- #
def functions(root: str) -> Dict[Key, str]:
    """Every function defined under ``root/src``: key -> qualified name."""
    found: Dict[Key, str] = {}
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as handle:
            module = compile(handle.read(), path, "exec")
        stack = [(module, "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                if const.co_name in _NOT_FUNCTIONS:
                    # a comprehension's nested lambda still counts
                    stack.append((const, prefix))
                    continue
                qualname = prefix + const.co_name
                if const.co_flags & _CO_NEWLOCALS:
                    found[rel, const.co_firstlineno, const.co_name] = qualname
                    stack.append((const, qualname + ".<locals>."))
                else:  # a class body
                    stack.append((const, qualname + "."))
    return found


# ---------------------------------------------------------------------- #
# The profile (runs inside each traced interpreter)
# ---------------------------------------------------------------------- #
class Recorder:
    """Records the ``src/`` code objects entered, and which of them some
    production frame called."""

    def __init__(self, root: str, out_dir: str, production: bool) -> None:
        self.out_dir = out_dir
        self.default_production = production
        self._root = os.path.realpath(root)
        self._trees = [
            (os.path.join(self._root, tree) + os.sep, kind)
            for tree, kind in TREES
        ]
        #: co_filename -> its tree (OUTSIDE ... SRC)
        self._files: Dict[str, int] = {}
        #: id(code) -> code; the reference keeps the id from being reused
        self.entered: Dict[int, types.CodeType] = {}
        self.production: Dict[int, types.CodeType] = {}

    def _tree(self, filename: str) -> int:
        path = os.path.realpath(filename)
        tree = next(
            (kind for prefix, kind in self._trees if path.startswith(prefix)),
            OUTSIDE,
        )
        self._files[filename] = tree
        return tree

    def profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        files = self._files
        tree = files.get(code.co_filename)
        if tree is None:
            tree = self._tree(code.co_filename)
        if tree != SRC:
            return
        ident = id(code)
        if ident in self.production:
            return
        self.entered[ident] = code
        caller = frame.f_back
        while caller is not None:
            tree = files.get(caller.f_code.co_filename)
            if tree is None:
                tree = self._tree(caller.f_code.co_filename)
            if tree == TEST:
                return
            if tree != OUTSIDE:
                self.production[ident] = code
                return
            caller = caller.f_back
        if self.default_production:
            self.production[ident] = code

    def install(self) -> None:
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)
        os.register_at_fork(after_in_child=self._forked)
        atexit.register(self.flush)
        self._follow_workers()

    def _follow_workers(self) -> None:
        # a multiprocessing worker clears the finalizers it inherited and
        # then runs the after-fork hooks: register its flush from one
        import multiprocessing.util

        multiprocessing.util.register_after_fork(self, Recorder._worker_started)

    def _worker_started(self) -> None:
        import multiprocessing.util

        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def _forked(self) -> None:
        # the child records only what it enters itself
        self.entered = {}
        self.production = {}

    def _key(self, code: types.CodeType) -> Key:
        rel = os.path.relpath(os.path.realpath(code.co_filename), self._root)
        return rel, code.co_firstlineno, code.co_name

    def flush(self) -> None:
        # list() first: another thread's profile may be adding entries
        record = {
            name: sorted(self._key(c) for c in list(codes.values()))
            for name, codes in (
                ("entered", self.entered), ("production", self.production)
            )
        }
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(record, handle)


def _child(argv: Sequence[str]) -> int:
    """``reach.py --child ROOT OUT_DIR 0|1 -- python-argv...``"""
    import runpy

    root, out_dir, production = argv[0], argv[1], argv[2] == "1"
    target = list(argv[4:])
    recorder = Recorder(root, out_dir, production)
    # the interpreter sees what ``python <argv>`` would show it
    if target[0] == "-m":
        sys.argv = target[1:]
        sys.path[0] = os.getcwd()
        run = lambda: runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = target
        sys.path[0] = os.path.dirname(os.path.abspath(target[0]))
        run = lambda: runpy.run_path(target[0], run_name="__main__")
    recorder.install()
    try:
        run()
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


# ---------------------------------------------------------------------- #
# Taking the map
# ---------------------------------------------------------------------- #
@dataclass
class ReachMap:
    """What every run entered: key -> names of the runs entering it, and
    of the runs entering it from a production frame."""

    entered: Dict[Key, Set[str]] = field(default_factory=dict)
    production: Dict[Key, Set[str]] = field(default_factory=dict)

    def add(self, run: str, record: dict) -> None:
        for key in record["entered"]:
            self.entered.setdefault(tuple(key), set()).add(run)
        for key in record["production"]:
            self.production.setdefault(tuple(key), set()).add(run)

    def classify(self, key: Key) -> str:
        if key in self.production:
            return "production"
        return "test-only" if key in self.entered else "unentered"


def take(root: str, runs: Iterable[Run], work: str, log=print) -> ReachMap:
    """Run each of ``runs`` under the profile and merge their records.

    Raises ``RuntimeError`` when a run exits with an unexpected status.
    """
    reach = ReachMap()
    scratch = os.path.join(work, "cwd")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for run in runs:
        out_dir = os.path.join(work, run.name)
        os.makedirs(out_dir)
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", root,
             out_dir, "1" if run.production else "0", "--", *run.argv],
            cwd=root if run.in_root else scratch,
            env={**env, **dict(run.env)},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if proc.returncode != run.exit_code:
            raise RuntimeError(
                f"run {run.name} exited {proc.returncode}, want "
                f"{run.exit_code}:\n{proc.stdout[-4000:]}"
            )
        records = sorted(glob.glob(os.path.join(out_dir, "*.json")))
        for path in records:
            with open(path) as handle:
                reach.add(run.name, json.load(handle))
        log(f"[reach] {run.name}: {len(records)} process(es), "
            f"{time.monotonic() - started:.0f}s")
    return reach


# ---------------------------------------------------------------------- #
# The allowlist and the verdict
# ---------------------------------------------------------------------- #
class AllowlistError(ValueError):
    """A malformed allowlist line."""


def load_allowlist(path: str) -> Dict[str, str]:
    """``<path>::<qualname>`` -> its one-line reason."""
    allowed: Dict[str, str] = {}
    if not os.path.exists(path):
        return allowed
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            if "::" not in name or not reason.strip():
                raise AllowlistError(
                    f"{path}:{number}: want '<path>::<qualname> <reason>', "
                    f"got {line!r}"
                )
            allowed[name] = reason.strip()
    return allowed


def verdict(
    found: Dict[Key, str], reach: ReachMap, allowed: Dict[str, str]
) -> Tuple[List[str], List[str], List[str]]:
    """(unentered and not allowed, test-only, stale allowlist entries)."""
    unentered, test_only = [], []
    unentered_names = set()
    for key in sorted(found):
        name = f"{key[0]}::{found[key]}"
        kind = reach.classify(key)
        if kind == "unentered":
            unentered_names.add(name)
            if name not in allowed:
                unentered.append(f"{name} (line {key[1]})")
        elif kind == "test-only":
            test_only.append(f"{name} (line {key[1]})")
    stale = sorted(set(allowed) - unentered_names)
    return unentered, test_only, stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:
        return _child(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--map", metavar="PATH",
                        help="write every function's class and runs as JSON")
    args = parser.parse_args(argv)
    try:
        allowed = load_allowlist(ALLOWLIST)
    except AllowlistError as exc:
        print(f"reach: {exc}", file=sys.stderr)
        return 2
    found = functions(ROOT)
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        try:
            reach = take(ROOT, RUNS, work)
        except RuntimeError as exc:
            print(f"reach: {exc}", file=sys.stderr)
            return 2
    unentered, test_only, stale = verdict(found, reach, allowed)
    if args.map:
        with open(args.map, "w") as handle:
            json.dump(
                {
                    f"{key[0]}::{name}": {
                        "line": key[1],
                        "class": reach.classify(key),
                        "runs": sorted(reach.entered.get(key, ())),
                        "production_runs": sorted(reach.production.get(key, ())),
                    }
                    for key, name in sorted(found.items())
                },
                handle,
                indent=1,
            )
    counts = {kind: 0 for kind in ("production", "test-only", "unentered")}
    for key in found:
        counts[reach.classify(key)] += 1
    print(f"[reach] {len(found)} functions: " + ", ".join(
        f"{n} {kind}" for kind, n in counts.items()
    ) + f" ({len(allowed)} allowlisted)")
    for name in test_only:
        print(f"test-only  {name}")
    for name in unentered:
        print(f"UNENTERED  {name}")
    for name in stale:
        print(f"STALE      {name}: allowlisted but entered or gone")
    return 1 if unentered or stale else 0


if __name__ == "__main__":
    sys.exit(main())
