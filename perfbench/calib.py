"""Fixed reference workloads that measure how fast the host is right now.

On a shared 2-core VM the same engine call varies by +-30% from one
second to the next because neighbours share the cores.  ``run_s`` and
``setup_s`` therefore divide each measured interval by a reference timed
just before and just after it, and scale by the reference's nominal
seconds: seconds on a host where the reference takes its nominal time.
:func:`reference` mixes interpreter work (tuple keys, dict probes,
slotted objects) with small-array numpy calls, the two kinds of work the
engines do; :func:`process_reference` adds what a fresh process pays
(interpreter start-up, loading compiled extension modules), which
dominates set-up.  Neither ever changes: a later change re-defines the
unit.
"""

import subprocess
import sys
import time

import numpy as np

#: Seconds :func:`reference` takes on the host the benchmark was
#: calibrated on when no neighbour competes (2-core Xeon VM, 2.1 GHz).
NOMINAL_S = 0.1
#: The same for :func:`process_reference`.
NOMINAL_PROCESS_S = 0.3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _interpreter(n=200_000):
    table = {}
    head = None
    acc = 0
    for i in range(n):
        key = (i & 255, i % 7)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, i, head)
            head = node
        else:
            node.value += i
        acc += len(key) + (node.value & 3)
    return acc


def _arrays(n=1600):
    a = np.arange(3200, dtype=np.uint64).reshape(200, 16)
    m = np.zeros((200, 16), dtype=bool)
    for _ in range(n):
        b = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (a >> np.uint64(31))
        m = np.where(b & np.uint64(1) == 0, ~m, m)
        a = a + np.uint64(1)
    return int(m.sum())


def reference() -> float:
    """Seconds the fixed reference work takes right now."""
    start = time.perf_counter()
    _interpreter()
    _arrays()
    return time.perf_counter() - start


def process_reference() -> float:
    """Seconds :func:`reference` plus a fresh interpreter importing numpy take."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return reference() + time.perf_counter() - start


def scaled(seconds: float, before: float, after: float,
           nominal: float = NOMINAL_S) -> float:
    """``seconds`` at nominal host speed, given the references around it."""
    return seconds * nominal / ((before + after) / 2)
