"""Shared fixtures.

``reference_rule`` swaps the compiled allocation tables for the plain
``Path``/``Link`` rule (:func:`repro.core.allocator.reference_allocate`)
where the fabric engine, the Clos chips and the router build their
:class:`~repro.core.allocator.Allocator`, so a whole engine run can be
repeated on the reference rule and compared with the normal run field
for field.

``no_leaked_connections`` fails a test that lets a ``multiprocessing``
connection be garbage-collected with its handle still open: CPython's
``Connection.__del__`` closes the descriptor without a
``ResourceWarning``, so ``-W error::ResourceWarning`` alone cannot see
a leaked pipe end.
"""

import contextlib
import gc
import importlib
from multiprocessing.connection import _ConnectionBase

import pytest

from repro.core import allocator as _allocator

#: Modules that look ``Allocator`` up by name when they build one (the
#: fabric engine imports it from ``repro.core.allocator`` at run time).
_BUILDERS = (
    "repro.core.allocator",
    "repro.core.spacetopo",
    "repro.router.router",
)


class ReferenceAllocator(_allocator.Allocator):
    """An :class:`Allocator` whose ``allocate`` is the reference rule."""

    calls = 0  #: reference evaluations since the fixture installed it

    def allocate(self, requests, token):
        type(self).calls += 1
        return _allocator.reference_allocate(
            self.ring, self.networks, requests, token
        )


@pytest.fixture
def reference_rule(monkeypatch):
    """A context manager: inside ``with reference_rule() as cls:`` every
    newly built Allocator is a :class:`ReferenceAllocator` (read
    ``cls.calls`` afterwards to check the reference actually ran)."""

    @contextlib.contextmanager
    def active():
        ReferenceAllocator.calls = 0
        with monkeypatch.context() as patch:
            for name in _BUILDERS:
                patch.setattr(
                    importlib.import_module(name), "Allocator",
                    ReferenceAllocator,
                )
            yield ReferenceAllocator

    return active


@pytest.fixture
def no_leaked_connections(monkeypatch):
    """Record every connection collected while still open; after the
    test (and a ``gc.collect()``), fail listing them."""
    leaked = []
    close_on_del = _ConnectionBase.__del__

    def __del__(conn):
        if conn._handle is not None:
            leaked.append(
                f"{type(conn).__name__}(handle={conn._handle}, "
                f"readable={conn.readable}, writable={conn.writable})"
            )
        close_on_del(conn)

    monkeypatch.setattr(_ConnectionBase, "__del__", __del__)
    yield
    gc.collect()
    assert not leaked, "connections collected while open: " + ", ".join(leaked)
