"""The allocator policy of a CLI process: set once by `cli.main`, never by
importing the package or by the library."""

import ctypes
import os
import subprocess
import sys
import types

import pytest

from marcsim import cli

SRC = os.path.dirname(os.path.dirname(cli.__file__))
TINY_SWEEP = ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "10", "--trials", "1000"]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _last_line_of_python(code: str, *args: str) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter on the sources."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    return run.stdout.splitlines()[-1]


class RecordingMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def libc(monkeypatch):
    """A stand-in for ``ctypes.CDLL(None)``, with the helper's once-only
    state cleared before and after the test."""
    fake = types.SimpleNamespace()
    real = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **kw: fake if name is None else real(name, *a, **kw))
    cli._keep_freed_memory.cache_clear()
    yield fake
    cli._keep_freed_memory.cache_clear()


def test_main_sets_the_allocator_policy_once(libc, tmp_path):
    libc.mallopt = RecordingMallopt()
    assert cli.main(TINY_SWEEP + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main(TINY_SWEEP + ["--out", str(tmp_path / "b.csv")]) == 0
    # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 64 MiB, M_ARENA_MAX = 1
    assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)]


def test_allocator_policy_is_a_no_op_without_mallopt(libc):
    assert not hasattr(libc, "mallopt")
    cli._keep_freed_memory()


_LOOKUPS_OF_LIBC = """
import ctypes, os, sys
lookups = []
real = ctypes.CDLL
def recording(name, *args, **kwargs):
    lookups.append(name is None)
    return real(name, *args, **kwargs)
ctypes.CDLL = recording
import marcsim, marcsim.cli
from marcsim.experiment import ExperimentSpec, run_experiment
from marcsim.model import Scheme
run_experiment(ExperimentSpec(figure="custom", snr_points_db=[10.0], relay_counts=[1], trials=1000,
                              schemes=[Scheme.DF_NC], output_path=os.path.join(sys.argv[1], "lib.csv")))
library = sum(lookups)
assert marcsim.cli.main(%r + ["--out", os.path.join(sys.argv[1], "cli.csv")]) == 0
print(library, sum(lookups))
"""


def test_library_leaves_the_allocator_alone(tmp_path):
    # the CLI owns its process; importing marcsim or calling run_experiment
    # must not reach mallopt, while cli.main does
    assert _last_line_of_python(_LOOKUPS_OF_LIBC % TINY_SWEEP, str(tmp_path)) == "0 1"


_SECOND_SWEEP_FAULTS = """
import os, resource, sys
from marcsim.cli import main
args = ["--figure", "fig2", "--mod", "16", "--relays", "1,3", "--snr", "0:20:10", "--trials", "32768"]
assert main(args + ["--out", os.path.join(sys.argv[1], "first.csv")]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(args + ["--out", os.path.join(sys.argv[1], "second.csv")]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_second_cli_sweep_reuses_freed_memory(tmp_path):
    # with the allocator's default policy the kernel's multi-MB temporaries
    # go back to the OS every batch: tens of thousands of faults per sweep
    assert int(_last_line_of_python(_SECOND_SWEEP_FAULTS, str(tmp_path))) < 1000
