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

The same variable also carries *disk* faults, distinguished by the
reserved ``disk`` prefix and parsed by
:func:`repro.engine.storage.parse_disk_spec`:

    REPRO_FAULT="disk:journal:enospc"           # 1st journal write fails
    REPRO_FAULT="disk:results:torn;nw:*:crash"  # mixed disk + process

Disk specs are *matched and fired* by the storage shim itself (it reads
the environment directly, so no plumbing is needed); :class:`FaultPlan`
parses them too so ``to_env``/``parse`` round-trip a mixed plan and a
malformed disk spec fails fast with a :class:`ConfigError` instead of
being silently ignored.  The reserved ``net`` prefix works the same
way for network faults — matched and fired by the protocol shim
(:mod:`repro.service.protocol`), carried here for round-tripping::

    REPRO_FAULT="net:server:drop"               # 1st request lost
    REPRO_FAULT="net:client.submit:duplicate"   # 1st submit sent twice

Checkpoint corruption is injected directly on the file with
:func:`corrupt_file` (deterministic byte flip), since it attacks the
store rather than a running cell.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import ConfigError, LivelockError, SimulationError
from .storage import (  # noqa: F401  (FAULT_ENV_VAR re-exported for callers)
    DISK_PREFIX,
    DiskFaultSpec,
    FAULT_ENV_VAR,
    parse_disk_spec,
)

if TYPE_CHECKING:  # imported lazily at parse time to avoid an import cycle
    from ..service.protocol import NetFaultSpec

#: reserved prefix for network faults (parsed by repro.service.protocol)
NET_PREFIX = "net"

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
    #: disk faults (fired by the storage shim; carried here for
    #: round-tripping and validation only)
    disk: List[DiskFaultSpec] = field(default_factory=list)
    #: network faults (fired by the protocol shim; carried here for
    #: round-tripping and validation only)
    net: List["NetFaultSpec"] = field(default_factory=list)

    def add(
        self, benchmark: str, config_tag: str, kind: FaultKind, times: int = -1
    ) -> "FaultPlan":
        self.specs[(benchmark, config_tag)] = FaultSpec(kind, times)
        return self

    def lookup(
        self, benchmark: str, config_tag: str, attempt: int
    ) -> Optional[FaultSpec]:
        """The fault to inject for this cell attempt, if any."""
        spec = self.specs.get((benchmark, config_tag)) or self.specs.get(
            (benchmark, ANY_CONFIG)
        )
        if spec is not None and spec.applies(attempt):
            return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs) or bool(self.disk) or bool(self.net)

    # ------------------------------------------------------------------ #
    # Environment round-trip (CLI / CI injection)
    # ------------------------------------------------------------------ #
    def to_env(self) -> str:
        parts = []
        for (bench, tag), spec in sorted(self.specs.items()):
            part = f"{bench}:{tag}:{spec.kind.value}"
            if spec.times >= 0:
                part += f":{spec.times}"
            parts.append(part)
        parts.extend(spec.to_part() for spec in self.disk)
        parts.extend(spec.to_part() for spec in self.net)
        return ";".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``bench:config:kind[:times][;...]`` (see module docstring)."""
        plan = cls()
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if fields[0] == DISK_PREFIX:
                plan.disk.append(parse_disk_spec(part))
                continue
            if fields[0] == NET_PREFIX:
                # deferred import: repro.service imports this module
                from ..service.protocol import parse_net_spec

                plan.net.append(parse_net_spec(part))
                continue
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
