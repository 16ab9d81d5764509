"""The Rotating Crossbar allocation rule (thesis sections 5.1-5.2).

Once per routing quantum, every Crossbar Processor knows all four packet
headers (exchanged around the ring) and the token position; each then
*independently* evaluates the same deterministic rule and therefore
arrives at the same global configuration -- that is what makes the
scheduling distributed without any control messages beyond the header
exchange.  :class:`Allocator` is that rule:

1. Visit inputs in token order (master first, then downstream).
2. An input with an empty queue, or whose requested output is already
   claimed this quantum, does not transmit.
3. Otherwise reserve a ring path: clockwise first, counterclockwise if
   any clockwise segment is taken (and network 2 last, when enabled).

The master can never be denied (its claims are first), which yields the
starvation bound of section 5.4; granted paths are link-disjoint by
construction, which yields deadlock freedom (section 5.5) -- both are
checked property-style in the tests.

Compiled tables (thesis chapter 6 at runtime)
---------------------------------------------
The thesis computes the crossbar configurations at compile time, so at
run time the tiles only index a table.  :class:`CompiledAllocator` is
the runtime mirror: per (src, dst) it holds the candidate paths' link
sets as integer bitmasks plus shared frozen :class:`Grant` objects, so
evaluating a quantum builds no :class:`~repro.core.ring.Path`/``Link``
objects.  :func:`compiled_allocator` keeps one instance per ``(ports,
networks)`` per process and every :class:`Allocator` evaluates through
it: the fabric loop, the router, the word-level model, each Clos chip,
the configuration-space enumeration and the many-worlds lanes (which
index its numpy tensors) all share the same tables.

:func:`reference_allocate` is the rule written out over ``Path``/``Link``
objects: the readable specification the tests hold the tables to, field
for field.  Nothing at run time calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.ring import Link, Path, RingGeometry


#: An input's per-quantum request: the destination output port, or None
#: when its input queue is empty.
Request = Optional[int]


@dataclass(frozen=True)
class Grant:
    """One input's granted transfer for the quantum."""

    src: int
    dst: int
    path: Path
    #: Ring hops between source and destination crossbar tiles: the
    #: path's hop count, stored once because every engine's quantum
    #: reads it per grant.  Not part of equality, hash or repr.
    expansion: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "expansion", self.path.hops)


@dataclass
class Allocation:
    """The global crossbar configuration for one quantum."""

    token: int
    requests: Tuple[Request, ...]
    grants: Dict[int, Grant] = field(default_factory=dict)
    blocked: Set[int] = field(default_factory=set)  #: requested but denied

    @property
    def used_links(self) -> Set[Link]:
        """Every fabric resource the grants hold: their ring segments,
        plus each granted input's ``in`` and output's ``out`` link."""
        used: Set[Link] = set()
        for g in self.grants.values():
            used.update(g.path.links)
            used.add(Link("out", g.dst))
            used.add(Link("in", g.src))
        return used

    @property
    def num_granted(self) -> int:
        return len(self.grants)

    @property
    def max_expansion(self) -> int:
        return max((g.expansion for g in self.grants.values()), default=0)

    def is_conflict_free(self) -> bool:
        """Outputs unique and ring links disjoint across grants."""
        outputs = [g.dst for g in self.grants.values()]
        if len(outputs) != len(set(outputs)):
            return False
        seen: Set[Link] = set()
        for g in self.grants.values():
            for link in g.path.links:
                if link in seen:
                    return False
                seen.add(link)
        return True


def _check_requests(n: int, requests: Sequence[Request], token: int) -> None:
    if len(requests) != n:
        raise ValueError(f"expected {n} requests, got {len(requests)}")
    if not 0 <= token < n:
        raise ValueError(f"token {token} out of range")


def reference_allocate(
    ring: RingGeometry, networks: int, requests: Sequence[Request], token: int
) -> Allocation:
    """The rule over ``Path``/``Link`` objects, one candidate at a time.

    The specification :class:`CompiledAllocator` must reproduce exactly
    (same grants, blocked set and used links); the tests compare the two.
    """
    n = ring.n
    _check_requests(n, requests, token)
    alloc = Allocation(token=token, requests=tuple(requests))
    claimed_outputs: Set[int] = set()
    used: Set[Link] = set()
    for offset in range(n):
        src = (token + offset) % n
        dst = requests[src]
        if dst is None:
            continue
        if not 0 <= dst < n:
            raise ValueError(f"request {dst} out of range at input {src}")
        if dst in claimed_outputs:
            alloc.blocked.add(src)
            continue
        granted_path = None
        for path in ring.candidate_paths(src, dst, networks):
            if not any(link in used for link in path.links):
                granted_path = path
                break
        if granted_path is None:
            alloc.blocked.add(src)
            continue
        claimed_outputs.add(dst)
        used.update(granted_path.links)
        alloc.grants[src] = Grant(src=src, dst=dst, path=granted_path)
    return alloc


class CompiledAllocator:
    """The allocation rule over precomputed per-(src, dst) tables.

    This is thesis section 6 applied at runtime: the candidate paths,
    their link sets (as integer bitmasks over the ring's directed
    segments), and the frozen :class:`Grant` objects are all computed
    once per geometry, so evaluating a quantum touches no
    ``Path``/``Link`` construction at all.  :meth:`allocate` builds the
    same :class:`Allocation` as :func:`reference_allocate`
    (equality-tested property-style); :meth:`batch_grants` evaluates it
    over many worlds at once.  Use :func:`compiled_allocator` for the
    process-wide shared instance.
    """

    def __init__(self, ring: RingGeometry, networks: int = 1):
        if networks not in (1, 2):
            raise ValueError("Raw has one or two static networks")
        self.ring = ring
        self.networks = networks
        self._tensors = None  #: lazily built by :meth:`lookup_tensors`
        self._batch = None  #: lazily built by :meth:`_batch_tables`
        n = ring.n
        #: [src][dst] -> tuple of (link_mask, Grant), candidates in the
        #: rule's preference order.
        self.table: List[List[Tuple[Tuple[int, Grant], ...]]] = []
        for src in range(n):
            row = []
            for dst in range(n):
                entries = []
                for path in ring.candidate_paths(src, dst, networks):
                    mask = 0
                    for link in path.links:
                        base = (link.network - 1) * 2 * n
                        bit = base + (link.index if link.kind == "cw" else n + link.index)
                        mask |= 1 << bit
                    entries.append((mask, Grant(src=src, dst=dst, path=path)))
                row.append(tuple(entries))
            self.table.append(row)
        #: [token] -> inputs in the order that token visits them.
        self._visit = [
            tuple((token + offset) % n for offset in range(n))
            for token in range(n)
        ]

    def allocate(self, requests: Sequence[Request], token: int) -> Allocation:
        """The quantum's :class:`Allocation`, via the compiled tables."""
        n = self.ring.n
        _check_requests(n, requests, token)
        table = self.table
        grants: Dict[int, Grant] = {}
        blocked: Set[int] = set()
        used = 0  # bitmask of held ring segments
        claimed = 0  # bitmask of claimed outputs
        for src in self._visit[token]:
            dst = requests[src]
            if dst is None:
                continue
            if not 0 <= dst < n:
                raise ValueError(f"request {dst} out of range at input {src}")
            if claimed >> dst & 1:
                blocked.add(src)
                continue
            for mask, grant in table[src][dst]:
                if not mask & used:
                    used |= mask
                    claimed |= 1 << dst
                    grants[src] = grant
                    break
            else:
                blocked.add(src)
        return Allocation(token, tuple(requests), grants, blocked)

    # ------------------------------------------------------------------
    # Batch path: the many-worlds engine's vectorized allocation.
    # ------------------------------------------------------------------
    def lookup_tensors(self):
        """Shared numpy lookup tensors for the batch allocation rule.

        Returns ``(mask, hops, valid)``, each of shape ``[n, n, C]``
        where ``C`` is the maximum candidate count over all (src, dst)
        pairs: ``mask[s, d, c]`` is candidate ``c``'s link bitmask (the
        same bit layout :meth:`allocate` uses, as ``uint64``),
        ``hops[s, d, c]`` its ring expansion, and ``valid[s, d, c]``
        False for padding slots past the pair's real candidates.  Built
        once per geometry and cached; every world of a batch run shares
        the same tensors, which is what makes the per-quantum step an
        array program instead of ``n_worlds`` table walks.

        Raises ``ValueError`` when the link-bit layout does not fit a
        ``uint64`` lane (``networks * 2 * n > 64``) -- callers treat
        that as "fall back to the scalar engine".
        """
        if self._tensors is None:
            import numpy as np

            n = self.ring.n
            bits = self.networks * 2 * n
            if bits > 64:
                raise ValueError(
                    f"link bitmask needs {bits} bits (networks="
                    f"{self.networks}, n={n}); the uint64 batch path "
                    "tops out at 64"
                )
            cmax = max(
                len(self.table[s][d]) for s in range(n) for d in range(n)
            )
            mask_t = np.zeros((n, n, cmax), dtype=np.uint64)
            hops_t = np.zeros((n, n, cmax), dtype=np.int64)
            valid_t = np.zeros((n, n, cmax), dtype=bool)
            for s in range(n):
                for d in range(n):
                    for c, (mask, grant) in enumerate(self.table[s][d]):
                        mask_t[s, d, c] = mask
                        hops_t[s, d, c] = grant.expansion
                        valid_t[s, d, c] = True
            self._tensors = (mask_t, hops_t, valid_t)
        return self._tensors

    def _batch_tables(self):
        """Hot-path variants of :meth:`lookup_tensors`, cached.

        Returns ``(base, cands, hops, outs, sentinel)``.  Every table is
        a tuple of contiguous 1-D columns, one per candidate slot,
        indexed by ``src * (n + 1) + dst + 1``: entry ``src * (n + 1)``
        of each input's block stands for "no request" (``dst == -1``),
        so a lane's index is its request plus 1 plus ``base[src]`` (an
        ``[n, 1]`` column) and a column gathers with ``take``.  Padding
        slots and the no-request entries hold all-ones masks;
        ``sentinel`` is a spare bit kept permanently set in the ``used``
        mask, so all-ones slots are never free.  Two layouts, picked by
        geometry:

        * **merged** (``networks * 2 * n + n + 1 <= 56``: n <= 18 on one
          network, n <= 11 on two) -- each candidate also holds its
          destination's ``out`` link at bit ``networks * 2 * n + dst``
          and its hop count in the top byte (bits 56..63; hops <= n fit).
          ``hops`` and ``outs`` are None.  The sentinel sits just above
          the ``out`` bits.
        * **split** (every other geometry up to 64 link bits) -- ``cands``
          hold link bits only, ``hops`` the matching hop counts, and
          ``outs`` (one column) each entry's destination bit, with bit
          ``n`` for "no request": :meth:`batch_grants` keeps that bit
          set in its claimed-outputs mask, so an input without a request
          is never granted.  When the links use all 64 bits there is no
          spare sentinel bit (``sentinel`` is 0); padding is still safe
          because every (src, dst) pair has at least one real candidate
          ordered before its padding (enforced here).
        """
        if self._batch is None:
            import numpy as np

            mask_t, hops_t, valid_t = self.lookup_tensors()
            n = self.ring.n
            bits = self.networks * 2 * n
            all_ones = np.uint64(0xFFFFFFFFFFFFFFFF)
            base = np.arange(0, n * (n + 1), n + 1, dtype=np.int64)[:, None]

            def columns(table, fill):
                # [n, n, C] -> C columns over the [n, n + 1] index, the
                # no-request entry first in each input's block.
                padded = np.full((n, n + 1, table.shape[2]), fill, table.dtype)
                padded[:, 1:] = table
                return tuple(
                    np.ascontiguousarray(padded[..., c].ravel())
                    for c in range(table.shape[2])
                )

            if bits + n + 1 <= 56:
                out_bit = np.uint64(1) << np.arange(
                    bits, bits + n, dtype=np.uint64
                )
                cand = (
                    mask_t
                    | out_bit[None, :, None]
                    | hops_t.astype(np.uint64) << np.uint64(56)
                )
                self._batch = (
                    base,
                    columns(np.where(valid_t, cand, all_ones), all_ones),
                    None,
                    None,
                    np.uint64(1 << (bits + n)),
                )
            else:
                if bits >= 64 and not valid_t.any(axis=2).all():
                    raise ValueError(
                        "batch path needs a spare link bit or at least one "
                        "candidate per (src, dst) pair"
                    )
                outs = np.ones((n, n, 1), dtype=np.uint64) << np.arange(
                    n, dtype=np.uint64
                )[None, :, None]
                self._batch = (
                    base,
                    columns(np.where(valid_t, mask_t, all_ones), all_ones),
                    columns(hops_t, 0),
                    columns(outs, np.uint64(1) << np.uint64(n))[0],
                    np.uint64(1 << bits) if bits < 64 else np.uint64(0),
                )
        return self._batch

    def batch_grants(self, dests, token: int):
        """:meth:`allocate`'s grants over a whole batch of worlds at once.

        ``dests`` is an integer array of shape ``[W, n]``: world ``w``'s
        input ``i`` requests output ``dests[w, i]``, with ``-1`` for "no
        request" (the ``None`` of the scalar rule).  ``token`` is scalar
        -- all worlds advance the rotating token in lock-step.

        Returns ``(granted, hops)``, both ``[W, n]``: ``granted[w, i]``
        is True when input ``i`` transmits this quantum in world ``w``,
        and ``hops[w, i]`` is the granted path's ring expansion (0 where
        not granted).  Row ``w`` equals the grants :meth:`allocate`
        makes on that world's request tuple -- the bit-identity contract
        the many-worlds engine's world-0 check rests on.

        The rule runs port-major: both results are transposed views of
        ``[n, W]`` arrays, so each input's lanes are one contiguous row
        of the token-order loop, and a ``dests`` that is itself the
        transpose of an ``[n, W]`` array (the many-worlds lanes) is read
        without a copy.
        """
        import numpy as np

        n = self.ring.n
        if dests.shape[1] != n:
            raise ValueError(f"expected {n} request lanes, got {dests.shape[1]}")
        if not 0 <= token < n:
            raise ValueError(f"token {token} out of range")
        base, cands, hops, outs, sentinel = self._batch_tables()
        w = dests.shape[0]
        idx = np.empty((n, w), dtype=np.int64)
        np.add(dests.T, 1, out=idx)
        # One pass checks both ends: -1 <= dest < n, i.e. 0 <= dest + 1
        # <= n, with anything below -1 wrapping high as unsigned.
        if idx.view(np.uint64).max(initial=0) > n:
            raise ValueError("request destination out of range")
        idx += base
        cand = [col.take(idx) for col in cands]
        # ``used`` starts with the sentinel bit set, so all-ones slots
        # are never free -- no valid_t in the hot loops.
        used = np.full(w, sentinel, dtype=np.uint64)
        order = self._visit[token]
        if hops is None:
            granted, hop = self._merged_grants(order, cand, used)
        else:
            granted, hop = self._split_grants(
                order, cand, [col.take(idx) for col in hops], outs.take(idx),
                used,
            )
        return granted.T, hop.T

    def _merged_grants(self, order, cand, used):
        """:meth:`batch_grants` on the merged layout: ``used`` holds the
        claimed ``out`` links beside the ring segments, so one free test
        per candidate covers "requested", "output free" and "path free".

        Per input, a first-free scan from the last candidate to the
        first, so the lowest-index free one (the scalar rule's order) is
        the one kept, written into that input's row of ``chosen``
        (0 when none is free); ``cc & used`` is nonzero exactly when
        ``cc`` collides."""
        import numpy as np

        chosen = np.empty(cand[0].shape, dtype=np.uint64)
        hit = np.empty(used.shape, dtype=np.uint64)
        free = np.empty(used.shape, dtype=bool)
        link_mask = np.uint64((1 << 56) - 1)  # strips the hop byte
        last = cand[-1]
        for src in order:
            pick = chosen[src]
            cc = last[src]
            np.bitwise_and(cc, used, hit)
            np.logical_not(hit, free)
            np.multiply(cc, free, pick)
            for c in cand[-2::-1]:
                cc = c[src]
                np.bitwise_and(cc, used, hit)
                np.logical_not(hit, free)
                np.copyto(pick, cc, where=free)
            np.bitwise_and(pick, link_mask, hit)
            np.bitwise_or(used, hit, used)
        # A granted candidate always holds its ``out`` bit, so 0 is
        # exactly "not granted" (and 0 hops).
        return chosen != 0, (chosen >> np.uint64(56)).view(np.int64)

    def _split_grants(self, order, cand, hopc, bit, used):
        """:meth:`batch_grants` on the split layout: claimed outputs in a
        mask of their own (bit ``n`` stands for "no request" and is
        always claimed), hop counts gathered beside the link masks."""
        import numpy as np

        n = self.ring.n
        claimed = np.full(used.shape, np.uint64(1) << np.uint64(n))
        granted = np.empty(cand[0].shape, dtype=bool)
        hops = np.zeros(cand[0].shape, dtype=np.int64)
        sel = np.empty(used.shape, dtype=np.uint64)
        hit = np.empty(used.shape, dtype=np.uint64)
        ok = np.empty(used.shape, dtype=bool)
        free = np.empty(used.shape, dtype=bool)
        for src in order:
            g = granted[src]
            np.bitwise_and(bit[src], claimed, hit)
            np.logical_not(hit, ok)  # requesting, output unclaimed
            g[...] = False
            sel[...] = 0
            # First-free scan, last candidate first, as in the merged
            # loop; a candidate may have no link bits (src == dst), so
            # the grant is tracked in ``g`` rather than read off ``sel``.
            for c in range(len(cand) - 1, -1, -1):
                cc = cand[c][src]
                np.bitwise_and(cc, used, hit)
                np.logical_not(hit, free)
                np.logical_and(free, ok, free)
                np.copyto(sel, cc, where=free)
                np.copyto(hops[src], hopc[c][src], where=free)
                np.logical_or(g, free, g)
            np.bitwise_or(used, sel, used)
            np.bitwise_or(claimed, bit[src], claimed, where=g)
        return granted, hops


#: The process-wide tables, one per ``(ports, networks)``.
_SHARED: Dict[Tuple[int, int], CompiledAllocator] = {}


def compiled_allocator(ports: int, networks: int = 1) -> CompiledAllocator:
    """The shared :class:`CompiledAllocator` for one geometry, built on
    first use and read-only afterwards."""
    key = (ports, networks)
    compiled = _SHARED.get(key)
    if compiled is None:
        compiled = _SHARED[key] = CompiledAllocator(RingGeometry(ports), networks)
    return compiled


class Allocator:
    """Deterministic per-quantum allocation over a ring geometry.

    Parameters
    ----------
    ring:
        The crossbar ring (N ports).
    networks:
        1 (the router's configuration; section 5.3 shows it suffices) or
        2 (the section-8.1 ablation enabling Raw's second static network).
    """

    #: Allocations are never memoized, so this stays 0.  The benchmark's
    #: tracer (``perfbench/spans.py``) reads it around every traced call.
    cache_hits = 0

    def __init__(self, ring: RingGeometry, networks: int = 1):
        if networks not in (1, 2):
            raise ValueError("Raw has one or two static networks")
        self.ring = ring
        self.networks = networks
        #: The shared tables every allocation is evaluated through.
        self.compiled = compiled_allocator(ring.n, networks)

    @classmethod
    def from_config(cls, config) -> "Allocator":
        """Build from a :class:`repro.config.SimConfig` (ports + networks)."""
        return cls(RingGeometry(config.ports), networks=config.networks)

    def allocate(self, requests: Sequence[Request], token: int) -> Allocation:
        """Compute the quantum's configuration.

        ``requests[i]`` is input ``i``'s head-of-line destination or None.
        Deterministic: every crossbar tile evaluating this with the same
        inputs produces the identical allocation.  Its :class:`Grant`
        objects are shared with the compiled tables.
        """
        return self.compiled.allocate(requests, token)

    # ------------------------------------------------------------------
    def master_always_granted(self, requests: Sequence[Request], token: int) -> bool:
        """Sanity predicate used by the fairness tests: a requesting
        master is granted in every reachable state."""
        alloc = self.allocate(requests, token)
        return requests[token] is None or token in alloc.grants
