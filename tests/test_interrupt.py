"""Tests for two-stage SIGINT/SIGTERM handling (graceful drain)."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.engine.errors import InterruptedRunError
from repro.engine.interrupt import GracefulInterrupt

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def self_signal(signum=signal.SIGTERM):
    os.kill(os.getpid(), signum)


# --------------------------------------------------------------------- #
# In-process unit tests
# --------------------------------------------------------------------- #


def test_first_signal_raises_in_raising_mode():
    with pytest.raises(InterruptedRunError, match="SIGTERM"):
        with GracefulInterrupt() as interrupt:
            self_signal()
    assert interrupt.requested
    assert interrupt.signum == signal.SIGTERM


def test_duplicate_burst_is_one_delivery():
    # senders like GNU timeout signal the process group AND the pid;
    # the duplicate must not escalate a drain into a hard exit (which
    # would kill this very test process)
    with pytest.raises(InterruptedRunError):
        with GracefulInterrupt() as interrupt:
            with interrupt.shield():
                self_signal()
                self_signal()
    assert interrupt.requested


def test_shield_defers_the_raise():
    flushed = False
    with pytest.raises(InterruptedRunError):
        with GracefulInterrupt() as interrupt:
            with interrupt.shield():
                self_signal()
                # still alive inside the shield: the flush completes
                flushed = True
    assert flushed


def test_previous_handlers_restored_on_exit():
    before = signal.getsignal(signal.SIGTERM)
    with GracefulInterrupt():
        assert signal.getsignal(signal.SIGTERM) != before
    assert signal.getsignal(signal.SIGTERM) == before


# --------------------------------------------------------------------- #
# Subprocess tests (hard-exit paths cannot run in-process)
# --------------------------------------------------------------------- #


def run_script(body, send, delay=0.5, gap=0.0, count=1):
    """Run a python script, signal it, return CompletedProcess."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", textwrap.dedent(body)],
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    time.sleep(delay)
    for _ in range(count):
        proc.send_signal(send)
        if gap:
            time.sleep(gap)
    out, _ = proc.communicate(timeout=60)
    return proc.returncode, out


def test_second_distinct_signal_hard_exits():
    code, _ = run_script(
        """
        import time
        from repro.engine.interrupt import GracefulInterrupt
        with GracefulInterrupt() as interrupt:
            # the shield defers the first signal's raise, so the
            # second one finds the drain still running
            with interrupt.shield():
                for _ in range(600):
                    time.sleep(0.1)
        """,
        send=signal.SIGTERM, gap=1.0, count=2,
    )
    # second signal outside the duplicate window: 128 + SIGTERM
    assert code == 128 + signal.SIGTERM


def test_cli_run_drains_to_exit_13(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO_ROOT, "src"),
        REPRO_FAULT="nw:baseline:timeout",  # the cell hangs forever
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "run", "nw",
         "--config", "baseline", "--scale", "micro"],
        env=env, cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    time.sleep(2.0)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 13, out
    assert "FAILED(interrupted)" in out
    assert '"error": "interrupted"' in out
