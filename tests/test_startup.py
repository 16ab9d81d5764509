"""Start-up import contract: a first fabric or space call loads only the
standard library and ``repro``; a first router, word-level or
many-worlds call (and ``import repro.cli``) may load numpy as well.

Every paper artifact comes from a fresh process (``repro run``,
``repro sweep``, a CI smoke step), so whatever the first engine call
imports is paid on every one of them.  Each case runs in a new
interpreter, snapshots ``sys.modules`` before ``import repro``, makes one
small call and lists what got loaded after the snapshot.  The fabric
and space engines draw their traffic from the pure-Python counter
streams, and the modules they load import numpy inside the functions
that call it, so numpy's own start-up stays off their path; a further
interpreter runs both engines with ``import numpy`` made to fail.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROLOGUE = """\
import json, sys
before = set(sys.modules)
"""

_EPILOGUE = """
loaded = sorted(set(sys.modules) - before)
print(json.dumps(
    {name: getattr(sys.modules[name], "__file__", None) for name in loaded}
))
"""

_RUN = "from repro import SimConfig, WorkloadSpec, run_config\n"

#: case -> the code the fresh interpreter runs between snapshot and listing
CASES = {
    "fabric": _RUN + (
        "run_config(SimConfig(fidelity='fabric', ports=16),\n"
        "           WorkloadSpec(pattern='uniform', quanta=20))\n"
    ),
    "router": _RUN + (
        "run_config(SimConfig(fidelity='router', ports=4),\n"
        "           WorkloadSpec(traffic='imix', packets=20))\n"
    ),
    "wordlevel": _RUN + (
        "run_config(SimConfig(fidelity='wordlevel', ports=4),\n"
        "           WorkloadSpec(cycles=3000, warmup_cycles=500))\n"
    ),
    "space_p1": _RUN + (
        "run_config(SimConfig(fidelity='space', ports=16, partitions=1),\n"
        "           WorkloadSpec(pattern='uniform', quanta=20))\n"
    ),
    "space_p2": _RUN + (
        "run_config(SimConfig(fidelity='space', ports=16, partitions=2),\n"
        "           WorkloadSpec(pattern='uniform', quanta=20))\n"
    ),
    "manyworlds": _RUN + (
        "from repro.parallel.manyworlds import run_worlds\n"
        "r = run_worlds(SimConfig(fidelity='fabric', ports=16),\n"
        "               WorkloadSpec(traffic='imix', quanta=20), 8)\n"
        "assert r.vectorized, r.fallback_reason\n"
    ),
    "import_cli": "import repro.cli\n",
}

#: Cases whose first call loads no numpy module at all.
NUMPY_FREE = ("fabric", "space_p1", "space_p2")

#: Fabric and space calls under uniform and IMIX traffic, with every
#: ``import numpy`` made to raise.  The P = 2 run forks its worker after
#: the block is in place, so a numpy import in the worker fails the run.
_NUMPY_BLOCKED = """\
import sys
sys.modules["numpy"] = None
from repro import SimConfig, WorkloadSpec, run_config
for fidelity, partitions in (("fabric", 1), ("space", 1), ("space", 2)):
    for workload in (WorkloadSpec(pattern="uniform", quanta=20),
                     WorkloadSpec(traffic="imix", quanta=20)):
        r = run_config(SimConfig(fidelity=fidelity, ports=16,
                                 partitions=partitions), workload)
        assert r.delivered_packets > 0, (fidelity, partitions, workload)
        if partitions > 1:
            assert not r.extra["space_shard"]["serial_fallback"]
"""

#: ``multiprocessing``'s alias of ``__main__``, registered when a space
#: run starts its workers.
_ALLOWED_NAMES = {"__mp_main__"}


def _outside(loaded):
    """Modules neither stdlib, numpy, repro, file-less nor allowed by name."""
    return sorted(
        name
        for name, path in loaded.items()
        if path is not None
        and name not in _ALLOWED_NAMES
        and name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] not in ("numpy", "repro")
    )


def _fresh(code):
    """Run ``code`` in a fresh interpreter on ``src/``; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.lru_cache(maxsize=None)
def _loaded_modules(case):
    """``{module: __file__}`` loaded by ``case``'s fresh interpreter (run
    once per case and shared by the tests below)."""
    out = _fresh(_PROLOGUE + CASES[case] + _EPILOGUE)
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_call_loads_only_stdlib_numpy_repro(case):
    outside = _outside(_loaded_modules(case))
    by_package = Counter(name.partition(".")[0] for name in outside)
    assert not outside, (
        f"{case}: loaded modules outside the standard library, numpy and "
        f"repro, by top-level package: {dict(by_package)}; every fresh "
        "`repro` process pays for them, so keep packages such as scipy "
        "off the start-up path"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_call_loads_no_numpy_ma(case):
    # np.percentile's first call imports numpy.ma (about 10 ms); the
    # latency summaries use repro.metrics.latency.percentile instead.
    masked = [
        name for name in _loaded_modules(case)
        if name == "numpy.ma" or name.startswith("numpy.ma.")
    ]
    assert not masked, f"{case}: loaded {masked}"


@pytest.mark.parametrize("case", NUMPY_FREE)
def test_fabric_and_space_first_call_loads_no_numpy(case):
    loaded = [
        name for name in _loaded_modules(case)
        if name.partition(".")[0] == "numpy"
    ]
    assert not loaded, (
        f"{case}: loaded {len(loaded)} numpy modules ({loaded[:3]} ...); "
        "import numpy inside the function that calls it (annotations "
        "under TYPE_CHECKING); `python -X importtime` shows the chain"
    )


def test_fabric_and_space_run_with_numpy_blocked():
    _fresh(_NUMPY_BLOCKED)
