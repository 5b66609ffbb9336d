"""The reach map (tools/reach.py) on a four-function fixture package.

The fixture's functions are entered from production code, by no run,
from a test frame only, and only inside a forked worker; each must land
in its class, and the allowlist must refuse an entry without a reason.
"""

import importlib.util
import os
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "tools", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


reach = _load_tool()

FIXTURE = {
    "src/fixpkg/__init__.py": "",
    "src/fixpkg/core.py": '''
        import multiprocessing


        def used():
            return 1


        def never():
            return 2


        def test_only():
            return 3


        def forked(conn):
            conn.send(4)
            conn.close()


        def main():
            used()
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=forked, args=(child,))
            proc.start()
            assert parent.recv() == 4
            proc.join()
    ''',
    "src/fixpkg/__main__.py": '''
        from fixpkg.core import main

        main()
    ''',
    "tests/check_fixture.py": '''
        from fixpkg.core import test_only

        assert test_only() == 3
    ''',
}


@pytest.fixture(scope="module")
def fixture_map(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    for rel, text in FIXTURE.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip())
    runs = (
        reach.Run("prod", ("-m", "fixpkg"), in_root=True),
        reach.Run("tests", ("tests/check_fixture.py",), production=False,
                  in_root=True),
    )
    work = tmp_path_factory.mktemp("work")
    taken = reach.take(str(root), runs, str(work), log=lambda *_: None)
    found = reach.functions(str(root))
    return root, found, taken


def test_each_function_lands_in_its_class(fixture_map):
    _, found, taken = fixture_map
    classes = {name: taken.classify(key) for key, name in found.items()}
    assert classes == {
        "used": "production",
        "never": "unentered",
        "test_only": "test-only",
        "forked": "production",  # entered only in the forked worker
        "main": "production",
    }


def test_verdict_fails_on_unentered_and_stale_entries(fixture_map):
    _, found, taken = fixture_map
    unentered, test_only, stale = reach.verdict(found, taken, {})
    assert [line.split(" ")[0] for line in unentered] == [
        "src/fixpkg/core.py::never"
    ]
    assert [line.split(" ")[0] for line in test_only] == [
        "src/fixpkg/core.py::test_only"
    ]
    assert stale == []
    allowed = {
        "src/fixpkg/core.py::never": "kept for the fixture",
        "src/fixpkg/core.py::used": "entered, so this entry is stale",
    }
    unentered, _, stale = reach.verdict(found, taken, allowed)
    assert unentered == []
    assert stale == ["src/fixpkg/core.py::used"]


def test_allowlist_entry_without_reason_is_refused(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text(
        "# comment lines and blank lines are skipped\n\n"
        "src/fixpkg/core.py::never abstract on purpose\n"
    )
    assert reach.load_allowlist(str(path)) == {
        "src/fixpkg/core.py::never": "abstract on purpose"
    }
    path.write_text("src/fixpkg/core.py::never\n")
    with pytest.raises(reach.AllowlistError, match="reason"):
        reach.load_allowlist(str(path))
