"""Deterministic fault injection for exercising supervision paths.

Recovery code that is never executed is recovery code that does not
work.  A :class:`FaultPlan` maps (benchmark, config-tag) cells to a
:class:`FaultSpec` that forces a specific failure — wall-clock timeout,
hard worker crash, livelock, or a generic transient error — either on
every attempt or only on the first ``times`` attempts (which exercises
the retry/backoff path end to end: fail, back off, succeed).

Plans serialize to/from a compact environment string so the CLI and CI
can inject faults through a real ``python -m repro report`` invocation:

    REPRO_FAULT="nw:baseline:livelock"          # always
    REPRO_FAULT="nw:baseline:crash:2"           # first two attempts only
    REPRO_FAULT="nw:*:timeout;gemm:sched:crash" # several cells; any config

This is the only fault grammar.  Disk failures are not injected: the
persistence code calls the OS directly, and its tests fake a full disk
or a failed ``fsync`` by patching ``os``.  A spec in the removed
``disk:<layer>:<kind>`` form is refused with a :class:`ConfigError`
rather than read as a process fault for a benchmark named ``disk``.
Checkpoint corruption is injected directly on the file with
:func:`corrupt_file` (deterministic byte flip), since it attacks the
store rather than a running cell.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import ConfigError, LivelockError, SimulationError

#: environment variable a fault plan rides in (CLI / CI injection)
FAULT_ENV_VAR = "REPRO_FAULT"

#: config-tag wildcard: the fault fires for every configuration
ANY_CONFIG = "*"


class FaultKind(enum.Enum):
    """What the injected fault does inside the worker."""

    #: sleep far past any reasonable deadline (watchdog must kill us)
    TIMEOUT = "timeout"
    #: die instantly without reporting anything (models OOM-kill/SIGKILL)
    CRASH = "crash"
    #: raise a LivelockError as the progress watchdog would
    LIVELOCK = "livelock"
    #: raise a SanitizerError as a failed invariant sweep would (tests
    #: the FAILED(sanitizer:<tag>) degradation path without corrupting a
    #: real structure; REPRO_SANITIZE_INJECT does the organic version)
    SANITIZER = "sanitizer"
    #: raise a generic SimulationError (non-transient, not retried)
    ERROR = "error"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what to do and for how many attempts."""

    kind: FaultKind
    #: fire on the first ``times`` attempts only; < 0 means every attempt
    times: int = -1

    def applies(self, attempt: int) -> bool:
        return self.times < 0 or attempt < self.times


@dataclass
class FaultPlan:
    """Deterministic schedule of faults keyed by (benchmark, config-tag)."""

    specs: Dict[Tuple[str, str], FaultSpec] = field(default_factory=dict)

    def add(
        self, benchmark: str, config_tag: str, kind: FaultKind, times: int = -1
    ) -> "FaultPlan":
        self.specs[(benchmark, config_tag)] = FaultSpec(kind, times)
        return self

    def lookup(
        self,
        benchmark: str,
        config_tag: str,
        attempt: int,
        aliases: Tuple[str, ...] = (),
    ) -> Optional[FaultSpec]:
        """The fault to inject for this cell attempt, if any.

        A sweep simulates a cell once however many tags requested it
        (``aliases`` are the others); a spec naming any of those tags
        fires, the first match in tag order winning, then ``*``.
        """
        spec = None
        for tag in (config_tag,) + tuple(aliases) + (ANY_CONFIG,):
            spec = self.specs.get((benchmark, tag))
            if spec is not None:
                break
        if spec is not None and spec.applies(attempt):
            return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------ #
    # Environment parsing (CLI / CI injection)
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``bench:config:kind[:times][;...]`` (see module docstring)."""
        plan = cls()
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if fields[0] == "disk":
                raise ConfigError(
                    f"disk fault spec {part!r} is no longer supported; "
                    "REPRO_FAULT takes benchmark:config:kind[:times] only",
                    field=FAULT_ENV_VAR,
                )
            if len(fields) not in (3, 4):
                raise ConfigError(
                    f"bad fault spec {part!r}; expected "
                    "benchmark:config:kind[:times]",
                    field=FAULT_ENV_VAR,
                )
            bench, tag, kind_name = fields[:3]
            try:
                kind = FaultKind(kind_name)
            except ValueError:
                raise ConfigError(
                    f"unknown fault kind {kind_name!r}; choose from "
                    f"{[k.value for k in FaultKind]}",
                    field=FAULT_ENV_VAR,
                ) from None
            try:
                times = int(fields[3]) if len(fields) == 4 else -1
            except ValueError:
                raise ConfigError(
                    f"bad fault repeat count {fields[3]!r} in {part!r}",
                    field=FAULT_ENV_VAR,
                ) from None
            plan.add(bench, tag, kind, times)
        return plan

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        text = (environ or os.environ).get(FAULT_ENV_VAR, "")
        if not text:
            return None
        return cls.parse(text)


def trigger(spec: FaultSpec) -> None:
    """Execute an injected fault (called inside the worker body)."""
    if spec.kind is FaultKind.CRASH:
        # Bypass Python teardown entirely so no error message escapes —
        # exactly what an OOM-killed or SIGKILLed worker looks like.
        os._exit(86)
    if spec.kind is FaultKind.TIMEOUT:
        time.sleep(3600.0)
        raise SimulationError("injected timeout outlived the watchdog")
    if spec.kind is FaultKind.LIVELOCK:
        raise LivelockError("injected livelock")
    if spec.kind is FaultKind.SANITIZER:
        from .errors import SanitizerError

        raise SanitizerError(
            "sanitizer[injected]: fault-plan violation", tag="injected"
        )
    raise SimulationError("injected error")


def corrupt_file(path: str, offset: int = -1) -> None:
    """Deterministically flip one byte of ``path`` (checkpoint attack).

    ``offset`` indexes into the file; negative offsets count from the
    end (the default flips the middle byte so both the header and the
    trailing record survive JSON-decoding but fail integrity checks).
    """
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    index = offset if offset >= 0 else len(data) // 2
    data[index] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
