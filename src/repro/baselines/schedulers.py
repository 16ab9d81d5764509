"""Crossbar matching schedulers (thesis section 2.2.2).

The Cisco 12000 GSR backplane runs iSLIP (McKeown): per-output grant
pointers and per-input accept pointers stepped round-robin, iterated a
few times per slot, desynchronizing under load so the match approaches
maximum size.  PIM (the older DEC scheme) replaces the pointers with
random choices.  Both operate on the VOQ occupancy matrix; the interface
is ``match(requests) -> {input: output}`` where ``requests[i][j]`` is
true when input ``i`` has a cell for output ``j``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


class Scheduler:
    """Computes a conflict-free input/output matching each slot."""

    def __init__(self, num_ports: int):
        self.n = num_ports

    def match(self, requests: Sequence[Sequence[bool]]) -> Dict[int, int]:
        raise NotImplementedError


class iSLIPScheduler(Scheduler):
    """iSLIP with ``iterations`` request-grant-accept rounds.

    Pointers advance only for matches made in the *first* iteration
    (McKeown's rule), which is what gives iSLIP its desynchronization
    and 100% throughput under uniform traffic.
    """

    def __init__(self, num_ports: int, iterations: int = 1):
        super().__init__(num_ports)
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.iterations = iterations
        self.grant_ptr = [0] * num_ports  # per output
        self.accept_ptr = [0] * num_ports  # per input

    def match(self, requests: Sequence[Sequence[bool]]) -> Dict[int, int]:
        n = self.n
        matched_in: Dict[int, int] = {}
        matched_out: Dict[int, int] = {}
        for it in range(self.iterations):
            # Request: unmatched inputs request all outputs they queue for.
            # Grant: each unmatched output picks the requesting input
            # closest to its pointer.
            grants: Dict[int, List[int]] = {}
            for j in range(n):
                if j in matched_out:
                    continue
                chosen: Optional[int] = None
                for k in range(n):
                    i = (self.grant_ptr[j] + k) % n
                    if i not in matched_in and requests[i][j]:
                        chosen = i
                        break
                if chosen is not None:
                    grants.setdefault(chosen, []).append(j)
            # Accept: each input granted by several outputs picks the one
            # closest to its accept pointer.
            for i, offered in grants.items():
                best = None
                best_rank = n + 1
                for j in offered:
                    rank = (j - self.accept_ptr[i]) % n
                    if rank < best_rank:
                        best_rank = rank
                        best = j
                if best is None:
                    continue
                matched_in[i] = best
                matched_out[best] = i
                if it == 0:
                    self.grant_ptr[best] = (i + 1) % n
                    self.accept_ptr[i] = (best + 1) % n
        return matched_in


class PIMScheduler(Scheduler):
    """Parallel Iterative Matching: random grants and accepts."""

    def __init__(self, num_ports: int, iterations: int = 1, rng: Optional[np.random.Generator] = None):
        super().__init__(num_ports)
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.iterations = iterations
        self.rng = rng or np.random.default_rng(0)

    def match(self, requests: Sequence[Sequence[bool]]) -> Dict[int, int]:
        n = self.n
        matched_in: Dict[int, int] = {}
        matched_out: Dict[int, int] = {}
        for _ in range(self.iterations):
            grants: Dict[int, List[int]] = {}
            for j in range(n):
                if j in matched_out:
                    continue
                candidates = [
                    i for i in range(n) if i not in matched_in and requests[i][j]
                ]
                if candidates:
                    pick = candidates[int(self.rng.integers(0, len(candidates)))]
                    grants.setdefault(pick, []).append(j)
            for i, offered in grants.items():
                j = offered[int(self.rng.integers(0, len(offered)))]
                matched_in[i] = j
                matched_out[j] = i
        return matched_in
