"""Detection and recovery state shared by the router layers.

Two recovery mechanisms, both deterministic so that chaos runs are
regression-testable:

:class:`TokenRecovery`
    The Rotating Crossbar serializes grants through a single token; if
    the token is lost nothing ever gets granted again -- the
    whole-fabric analogue of a deadlock.  Recovery mirrors classic
    token-ring behavior: the fabric *detects* the loss at the next
    quantum boundary (no port holds the token), runs a fixed-length
    regeneration protocol (one idle quantum per port to confirm no one
    holds it, plus one to re-issue), and restarts the token at port 0.
    The elapsed cycles feed the MTTR metric.

:class:`DegradedRouting`
    When a port dies the scheduler masks it out of the rotation and the
    ingress lookup remaps traffic destined to it onto the next live
    port clockwise (modeling the routing layer reconverging around the
    failure).  The surviving ports keep forwarding -- throughput
    degrades proportionally instead of the fabric wedging.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.metrics.resilience import ResilienceMetrics


class TokenRecovery:
    """Lost-token detection and fixed-cost regeneration.

    The engines call :meth:`lose` when the plan's ``token_loss`` event
    fires, poll :attr:`lost` at each quantum boundary, burn
    :meth:`recovery_quanta` idle quanta running the regeneration
    protocol, then call :meth:`recover` with the cycle at which the
    token is back in service.
    """

    def __init__(self, ports: int, metrics: Optional[ResilienceMetrics] = None):
        self.ports = ports
        self.metrics = metrics
        self.lost = False
        self.loss_cycle: Optional[int] = None
        self.recoveries = 0
        self.last_recovery_cycles: Optional[int] = None

    def lose(self, cycle: int) -> None:
        """The token vanishes at ``cycle``; idempotent while still lost."""
        if not self.lost:
            self.lost = True
            self.loss_cycle = cycle

    def recovery_quanta(self) -> int:
        """Protocol length in idle quanta: each port confirms it does not
        hold the token (``ports`` quanta), then port 0 re-issues (1)."""
        return self.ports + 1

    def recover(self, token, cycle: int) -> int:
        """Regenerate the token at port 0 at ``cycle``; returns the
        cycles from loss to restored service (the MTTR sample)."""
        if not self.lost:
            raise RuntimeError("recover() called with no token loss pending")
        token.reset()
        self.lost = False
        elapsed = cycle - (self.loss_cycle or 0)
        self.last_recovery_cycles = elapsed
        self.recoveries += 1
        if self.metrics is not None:
            self.metrics.close_open("token_loss", "token", cycle)
        self.loss_cycle = None
        return elapsed


class DegradedRouting:
    """Dead-port mask plus clockwise-next-live rerouting.

    ``kill(port)`` takes a port out of service permanently (the
    ``port_down`` fault).  The scheduler skips dead ports entirely;
    ingress remaps packets destined to a dead port via :meth:`remap`
    (the next live port clockwise), and anything already queued for the
    dead port is dropped and counted -- degraded mode, not silent loss.
    """

    def __init__(self, ports: int, metrics: Optional[ResilienceMetrics] = None):
        self.ports = ports
        self.metrics = metrics
        self.dead: Set[int] = set()

    def kill(self, port: int) -> bool:
        """Mark ``port`` dead; False when it already was."""
        if port in self.dead:
            return False
        if not 0 <= port < self.ports:
            raise ValueError(f"port {port} out of range 0..{self.ports - 1}")
        self.dead.add(port)
        return True

    def converged(self, port: int, cycle: int) -> None:
        """Routing has reconverged around dead ``port`` at ``cycle``:
        close the fault's recovery record (its MTTR sample)."""
        if self.metrics is not None:
            self.metrics.close_open("port_down", f"port:{port}", cycle)

    def alive(self, port: int) -> bool:
        return port not in self.dead

    @property
    def any_dead(self) -> bool:
        return bool(self.dead)

    def remap(self, port: int) -> Optional[int]:
        """The serving port for traffic addressed to ``port``: itself
        when alive, else the next live port clockwise; None when every
        port is dead."""
        if port not in self.dead:
            return port
        for step in range(1, self.ports):
            cand = (port + step) % self.ports
            if cand not in self.dead:
                return cand
        return None
