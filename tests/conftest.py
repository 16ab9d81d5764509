"""Shared fixtures.

``reference_rule`` swaps the compiled allocation tables for the plain
``Path``/``Link`` rule (:func:`repro.core.allocator.reference_allocate`)
where the fabric engine, the Clos chips and the router build their
:class:`~repro.core.allocator.Allocator`, so a whole engine run can be
repeated on the reference rule and compared with the normal run field
for field.
"""

import contextlib
import importlib

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
