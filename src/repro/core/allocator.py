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

Fast path (thesis section 6 at runtime)
---------------------------------------
The thesis's chapter-6 trick is collapsing the 5^4 x 4 configuration
space into ~32 reusable switch programs computed once, offline.  The
runtime mirror here has two tiers, both behind :meth:`Allocator.enable_cache`:

* the **compiled tables** (:class:`CompiledAllocator`) precompute, per
  (src, dst), the candidate paths' link sets as integer bitmasks plus
  shared frozen :class:`Grant` objects, so evaluating the rule never
  rebuilds :class:`~repro.core.ring.Path`/``Link`` objects;
* an **LRU cache** on ``allocate(requests, token)`` keyed by the exact
  ``(requests, token)`` tuple, with hit/miss counters, for workloads
  whose request state recurs (every deterministic saturated pattern).

Both tiers are bit-identical to the uncached rule (property-tested in
``tests/test_fabric_fastpath.py``): cached :class:`Allocation` objects
are shared and must be treated as read-only by callers.
"""

from __future__ import annotations

from collections import OrderedDict
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

    @property
    def expansion(self) -> int:
        """Ring hops between source and destination crossbar tiles."""
        return self.path.hops


@dataclass
class Allocation:
    """The global crossbar configuration for one quantum."""

    token: int
    requests: Tuple[Request, ...]
    grants: Dict[int, Grant] = field(default_factory=dict)
    blocked: Set[int] = field(default_factory=set)  #: requested but denied
    used_links: Set[Link] = field(default_factory=set)

    @property
    def num_granted(self) -> int:
        return len(self.grants)

    @property
    def max_expansion(self) -> int:
        return max((g.expansion for g in self.grants.values()), default=0)

    def granted_outputs(self) -> Set[int]:
        return {g.dst for g in self.grants.values()}

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

    def __init__(self, ring: RingGeometry, networks: int = 1,
                 cache_size: int = 0):
        if networks not in (1, 2):
            raise ValueError("Raw has one or two static networks")
        self.ring = ring
        self.networks = networks
        self._compiled: Optional["CompiledAllocator"] = None
        self._cache: Optional[OrderedDict] = None
        self._cache_size = 0
        self.cache_hits = 0
        self.cache_misses = 0
        if cache_size:
            self.enable_cache(cache_size)

    @classmethod
    def from_config(cls, config) -> "Allocator":
        """Build from a :class:`repro.config.SimConfig` (ports + networks)."""
        return cls(
            RingGeometry(config.ports),
            networks=config.networks,
            cache_size=getattr(config, "alloc_cache", 0),
        )

    # ------------------------------------------------------------------
    # Fast path: compiled tables + LRU memoization.
    # ------------------------------------------------------------------
    def enable_cache(self, maxsize: int = 4096) -> "Allocator":
        """Turn on the allocation fast path; returns self for chaining.

        Bit-identical to the uncached rule.  Cached allocations are
        shared objects: callers must not mutate them."""
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self._cache = OrderedDict()
        self._cache_size = maxsize
        self._compiled = self.compiled()
        return self

    def disable_cache(self) -> None:
        self._cache = None
        self._cache_size = 0

    @property
    def cache_enabled(self) -> bool:
        return self._cache is not None

    def cache_info(self) -> Dict[str, float]:
        """Hit/miss counters (the telemetry registry surfaces these)."""
        total = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hits / total if total else 0.0,
            "size": len(self._cache) if self._cache is not None else 0,
            "maxsize": self._cache_size,
        }

    def compiled(self) -> "CompiledAllocator":
        """The precomputed-table evaluator (built once, then shared)."""
        if self._compiled is None:
            self._compiled = CompiledAllocator(self.ring, self.networks)
        return self._compiled

    def allocate(self, requests: Sequence[Request], token: int) -> Allocation:
        """Compute the quantum's configuration.

        ``requests[i]`` is input ``i``'s head-of-line destination or None.
        Deterministic: every crossbar tile evaluating this with the same
        inputs produces the identical allocation.
        """
        cache = self._cache
        if cache is not None:
            key = (tuple(requests), token)
            hit = cache.get(key)
            if hit is not None:
                self.cache_hits += 1
                cache.move_to_end(key)
                return hit
            self.cache_misses += 1
            alloc = self._compiled.allocate(requests, token)
            cache[key] = alloc
            if len(cache) > self._cache_size:
                cache.popitem(last=False)
            return alloc
        n = self.ring.n
        if len(requests) != n:
            raise ValueError(f"expected {n} requests, got {len(requests)}")
        if not 0 <= token < n:
            raise ValueError(f"token {token} out of range")
        alloc = Allocation(token=token, requests=tuple(requests))
        claimed_outputs: Set[int] = set()
        used: Set[Link] = alloc.used_links
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
            for path in self.ring.candidate_paths(src, dst, self.networks):
                if not any(link in used for link in path.links):
                    granted_path = path
                    break
            if granted_path is None:
                alloc.blocked.add(src)
                continue
            claimed_outputs.add(dst)
            used.update(granted_path.links)
            used.add(Link("out", dst))
            used.add(Link("in", src))
            alloc.grants[src] = Grant(src=src, dst=dst, path=granted_path)
        return alloc

    # ------------------------------------------------------------------
    def master_always_granted(self, requests: Sequence[Request], token: int) -> bool:
        """Sanity predicate used by the fairness tests: a requesting
        master is granted in every reachable state."""
        alloc = self.allocate(requests, token)
        return requests[token] is None or token in alloc.grants


class CompiledAllocator:
    """The allocation rule over precomputed per-(src, dst) tables.

    This is thesis section 6 applied at runtime: the candidate paths,
    their link sets (as integer bitmasks over the ring's directed
    segments), and the frozen :class:`Grant` objects are all computed
    once per geometry, so evaluating a quantum touches no
    ``Path``/``Link`` construction at all.  :meth:`allocate` builds the
    same :class:`Allocation` the plain rule builds (equality-tested
    property-style); :meth:`grants` is the stripped form, the scalar
    reference :meth:`batch_grants` is tested against.
    """

    def __init__(self, ring: RingGeometry, networks: int = 1):
        if networks not in (1, 2):
            raise ValueError("Raw has one or two static networks")
        self.ring = ring
        self.networks = networks
        self._tensors = None  #: lazily built by :meth:`lookup_tensors`
        n = ring.n
        #: [src][dst] -> tuple of (link_mask, hops, Path, Grant, links);
        #: candidates in the exact preference order of the plain rule.
        self.table: List[List[Tuple[Tuple[int, int, Path, Grant, Tuple[Link, ...]], ...]]] = []
        #: [src][dst] -> (Link("out", dst), Link("in", src)) shared pair.
        self.io_links: List[List[Tuple[Link, Link]]] = []
        for src in range(n):
            row = []
            io_row = []
            for dst in range(n):
                entries = []
                for path in ring.candidate_paths(src, dst, networks):
                    mask = 0
                    for link in path.links:
                        base = (link.network - 1) * 2 * n
                        bit = base + (link.index if link.kind == "cw" else n + link.index)
                        mask |= 1 << bit
                    entries.append(
                        (mask, path.hops, path, Grant(src=src, dst=dst, path=path),
                         path.links)
                    )
                row.append(tuple(entries))
                io_row.append((Link("out", dst), Link("in", src)))
            self.table.append(row)
            self.io_links.append(io_row)

    def allocate(self, requests: Sequence[Request], token: int) -> Allocation:
        """Bit-identical :class:`Allocation` via the compiled tables."""
        n = self.ring.n
        if len(requests) != n:
            raise ValueError(f"expected {n} requests, got {len(requests)}")
        if not 0 <= token < n:
            raise ValueError(f"token {token} out of range")
        alloc = Allocation(token=token, requests=tuple(requests))
        table = self.table
        used_links = alloc.used_links
        used_mask = 0
        claimed = 0  # bitmask of claimed outputs
        for offset in range(n):
            src = (token + offset) % n
            dst = requests[src]
            if dst is None:
                continue
            if not 0 <= dst < n:
                raise ValueError(f"request {dst} out of range at input {src}")
            if claimed >> dst & 1:
                alloc.blocked.add(src)
                continue
            for mask, _hops, _path, grant, links in table[src][dst]:
                if not mask & used_mask:
                    break
            else:
                alloc.blocked.add(src)
                continue
            claimed |= 1 << dst
            used_mask |= mask
            used_links.update(links)
            out_link, in_link = self.io_links[src][dst]
            used_links.add(out_link)
            used_links.add(in_link)
            alloc.grants[src] = grant
        return alloc

    def grants(self, requests: Sequence[Request], token: int) -> Tuple[Tuple[int, int, int], ...]:
        """The granted (src, dst, hops) triples, skipping the Allocation.

        Exactly the grants (and grant order is token order, like the
        plain rule's insertion order) of :meth:`allocate`: which queues
        pop and the expansion numbers, nothing more.
        """
        n = self.ring.n
        table = self.table
        used_mask = 0
        claimed = 0
        out = []
        for offset in range(n):
            src = (token + offset) % n
            dst = requests[src]
            if dst is None:
                continue
            for mask, hops, _path, _grant, _links in table[src][dst]:
                if claimed >> dst & 1:
                    break
                if not mask & used_mask:
                    claimed |= 1 << dst
                    used_mask |= mask
                    out.append((src, dst, hops))
                    break
        return tuple(out)

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
                    for c, (mask, hops, _p, _g, _l) in enumerate(self.table[s][d]):
                        mask_t[s, d, c] = mask
                        hops_t[s, d, c] = hops
                        valid_t[s, d, c] = True
            self._tensors = (mask_t, hops_t, valid_t)
        return self._tensors

    def _batch_tables(self):
        """Hot-path variants of :meth:`lookup_tensors`, cached.

        Returns ``(maskp, hopsp, bit_table, sentinel, link_mask)``:
        ``maskp`` is the candidate-mask tensor flattened to
        ``[n * n, C]`` with padding slots set to all-ones, and
        ``sentinel`` is a spare link bit kept permanently set in the
        ``used`` mask so all-ones padding slots are never free.  When
        the link layout leaves bits 56..63 free and hop counts fit a
        byte, each candidate's hop count is *packed into its mask's top
        byte* (one gather serves both) -- then ``hopsp`` is None and
        ``link_mask`` strips the hop byte before masks enter ``used``.
        Otherwise ``hopsp`` is the ``[n * n, C]`` hop tensor and
        ``link_mask`` is all-ones.  ``bit_table[d] == 1 << d``.  When
        the link layout uses all 64 bits there is no spare sentinel bit;
        padding is still safe because every (src, dst) pair has at least
        one real candidate ordered before its padding (enforced here).
        """
        if getattr(self, "_batch", None) is None:
            import numpy as np

            mask_t, hops_t, valid_t = self.lookup_tensors()
            n = self.ring.n
            bits = self.networks * 2 * n
            if bits >= 64 and not valid_t.any(axis=2).all():
                raise ValueError(
                    "batch path needs a spare link bit or at least one "
                    "candidate per (src, dst) pair"
                )
            sentinel = np.uint64(1 << bits) if bits < 64 else np.uint64(0)
            all_ones = np.uint64(0xFFFFFFFFFFFFFFFF)
            maskp = np.where(valid_t, mask_t, all_ones).reshape(n * n, -1)
            bit_table = np.uint64(1) << np.arange(n, dtype=np.uint64)
            if bits <= 55 and int(hops_t.max(initial=0)) < 256:
                maskp = maskp | (
                    hops_t.astype(np.uint64).reshape(n * n, -1)
                    << np.uint64(56)
                )
                self._batch = (
                    maskp, None, bit_table, sentinel,
                    np.uint64((1 << 56) - 1),
                )
            else:
                hopsp = hops_t.reshape(n * n, -1)
                self._batch = (maskp, hopsp, bit_table, sentinel, all_ones)
        return self._batch

    def batch_grants(self, dests, token: int):
        """:meth:`grants` over a whole batch of worlds at once.

        ``dests`` is an integer array of shape ``[W, n]``: world ``w``'s
        input ``i`` requests output ``dests[w, i]``, with ``-1`` for "no
        request" (the ``None`` of the scalar rule).  ``token`` is scalar
        -- all worlds advance the rotating token in lock-step.

        Returns ``(granted, hops)``, both ``[W, n]``: ``granted[w, i]``
        is True when input ``i`` transmits this quantum in world ``w``,
        and ``hops[w, i]`` is the granted path's ring expansion (0 where
        not granted).  Row ``w`` equals :meth:`grants` on that world's
        request tuple -- the bit-identity contract the many-worlds
        engine's world-0 check rests on.
        """
        import numpy as np

        n = self.ring.n
        if dests.shape[1] != n:
            raise ValueError(f"expected {n} request lanes, got {dests.shape[1]}")
        if not 0 <= token < n:
            raise ValueError(f"token {token} out of range")
        if dests.max(initial=-1) >= n:
            raise ValueError("request destination out of range")
        nworlds = dests.shape[0]
        zero = np.uint64(0)
        req_all = dests >= 0
        d_all = np.where(req_all, dests, 0)
        maskp, hopsp, bit_table, sentinel, link_mask = self._batch_tables()
        packed = hopsp is None
        # Gather every lane's candidate masks (hop counts packed in the
        # top byte when the layout allows) once up front ([W, n, C])
        # through a flat index; the offset loop below then only slices
        # views out of them, so its per-iteration cost is a handful of
        # [W]-sized ufunc calls.
        flat = np.arange(n)[None, :] * n + d_all
        cand_all = maskp[flat]
        hops_all = None if packed else hopsp[flat]
        bit_all = bit_table[d_all]
        cmax = cand_all.shape[2]
        hop_shift = np.uint64(56)
        claimed = np.zeros(nworlds, dtype=np.uint64)  # output bitmask
        # ``used`` starts with the sentinel bit set, so padding slots
        # (mask all-ones) are never free -- no valid_t in the hot loop.
        # Candidate hop bytes never reach ``used`` (link_mask strips
        # them), so the free test below sees link bits only.
        used = np.full(nworlds, sentinel, dtype=np.uint64)  # link bitmask
        granted = np.zeros((nworlds, n), dtype=bool)
        hops = np.zeros((nworlds, n), dtype=np.int64)
        for offset in range(n):
            src = (token + offset) % n
            # First-free candidate scan, lowest index first (the scalar
            # rule's candidate order) -- plain ufuncs beat argmax + fancy
            # indexing at these widths.
            sel = cand_all[:, src, 0]
            hsel = None if packed else hops_all[:, src, 0]
            any_free = (sel & used) == zero
            for c in range(1, cmax):
                cc = cand_all[:, src, c]
                fc = (cc & used) == zero
                take = ~any_free & fc
                sel = np.where(take, cc, sel)
                if not packed:
                    hsel = np.where(take, hops_all[:, src, c], hsel)
                any_free |= fc
            bit = bit_all[:, src]
            g = req_all[:, src] & ((claimed & bit) == zero) & any_free
            used |= np.where(g, sel, zero) & link_mask
            claimed |= np.where(g, bit, zero)
            granted[:, src] = g
            if packed:
                hsel = sel >> hop_shift
            hops[:, src] = np.where(g, hsel, 0)
        return granted, hops
