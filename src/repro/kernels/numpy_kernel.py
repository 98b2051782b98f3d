"""The ``numpy`` kernel: vectorised frontier expansion and proposal steps.

Frontier expansion gathers whole adjacency rows at once: for a frontier
``F`` it builds the flat index vector of every entry of every row of ``F``
(one ``repeat`` + one ``arange``), gathers the neighbour ids, masks them
against the shared ``bytearray`` visited mask (wrapped zero-copy with
``np.frombuffer`` — mutations flow back to the caller), and deduplicates to
**first-discovery order** so the produced layers are byte-identical to the
``pure`` tier's, not merely equal as sets.  The dedup is a sort-free O(k)
scatter: writing each candidate's position into a parked per-graph scratch
array *in reverse order* leaves every value holding its first-occurrence
position, and keeping exactly the elements sitting at their own
first-occurrence position yields the unique values in discovery order
(``np.unique`` would sort — measurably slower and the wrong order).  The
int32 ``indptr``/``indices`` buffers are wrapped zero-copy, which also
covers the shared-memory arena case (``CSRGraph.from_buffers`` hands in
memoryviews straight into the segment), and the BFS drivers keep frontiers
as int32 arrays between steps so the list round-trip is paid only at the
public API boundary.

Tiny frontiers fall back to the scalar loop: below a few dozen nodes the
fixed cost of the numpy call chain exceeds the loop it replaces, and the
carving recursion spends much of its life on exactly such small components.

The weak-phase proposal engine vectorises the "pick the adjacent red
cluster minimising ``(label, uid)``" rule with a single int64 composite key
``label * M + uid`` (``M = max uid + 1``) and a segment-minimum over the
scan set's concatenated rows.  It is only offered when every
participating uid is a non-negative ``int`` with ``M**2 < 2**63`` (every
generator in the scenario registry qualifies); otherwise
:meth:`NumpyKernel.proposal_engine` returns ``None`` and the driver keeps
the reference adjacency loop.

The engine's scan set is a **frontier**.  Within one phase red nodes never
change label or die, and a blue node that did not propose at step ``k`` had
no alive red neighbour then; so the only possible proposers at step
``k + 1`` are the alive blue neighbours of the nodes accepted at step
``k``.  ``start_phase`` scans the whole blue set once; ``resolve_step``
derives the next scan set from the accepted members it scatters,
deduplicated in ascending engine index — the full blue scan's own order,
so proposal groups, join order and Steiner trees are byte-identical.  A
step thus costs in proportion to the previous step's joins, not to the
blue set.  Scan sets below ``_SMALL_BLUE`` take a scalar path for both
the proposals and the frontier.  The ``pure`` tier deliberately keeps
the full scan as the oracle the frontier is differenced against.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.kernels.base import Kernel, ProposalEngine
from repro.kernels.pure import PureKernel

# Below this frontier size the scalar loop wins (numpy call overhead).
_SMALL_FRONTIER = 32

_EMPTY_INT32 = np.empty(0, dtype=np.int32)
# Below this scan-set size the proposal step runs the scalar fallback.
_SMALL_BLUE = 32


class NumpyKernel(PureKernel):
    """Vectorised BFS/proposal tier (requires the ``repro[fast]`` extra).

    The MIS and first-fit coloring sweeps are *inherited* from
    :class:`~repro.kernels.pure.PureKernel`: they are uid-ordered greedy
    loops whose every decision depends on the previous one, so there is no
    batch to vectorise — the wins there come from the accelerated diameter
    and BFS primitives feeding the same task pipeline.
    """

    name = "numpy"

    def __init__(self) -> None:
        # csr -> (indptr view, indices view); weak keys so dropped graphs
        # free their views.  The values reference the csr's *buffers*, not
        # the csr itself, so no reference cycle keeps the index alive.
        self._views: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # csr -> parked proposal-engine scratch (see _acquire_scratch).
        self._scratch: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def _arrays(self, csr: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy int32 ``indptr``/``indices`` views + dedup scratch."""
        entry = self._views.get(csr)
        if entry is None:
            indptr = np.frombuffer(csr.indptr, dtype=np.int32)
            indices = np.frombuffer(csr.indices, dtype=np.int32)
            degrees = np.diff(indptr)
            # Constant-degree graphs (torus, random-regular — the canonical
            # scenarios) admit a 2-D row view: gathering whole rows with
            # np.take(..., axis=0) is a per-row memcpy, several times faster
            # than the element-wise flat gather, and needs no flat-position
            # vector at all.
            rows = None
            if degrees.size and indices.size == degrees.size * int(degrees[0]):
                degree = int(degrees[0])
                if degree > 0 and bool((degrees == degree).all()):
                    rows = indices.reshape(csr.n, degree)
            entry = (
                indptr,
                indices,
                # First-occurrence positions scratch for _expand_array; never
                # reset — every call writes the entries it reads.
                np.empty(csr.n, dtype=np.int32),
                # Degrees, so each expansion pays one indptr gather not two.
                degrees,
                rows,
            )
            self._views[csr] = entry
        return entry[:3]

    def _csr_views(
        self, csr: Any
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]
    ]:
        self._arrays(csr)
        return self._views[csr]

    # ------------------------------------------------------------------ #
    # BFS primitives
    # ------------------------------------------------------------------ #
    def _expand_array(
        self, csr: Any, frontier: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """One vectorised BFS step in array space (int32 in, int32 out).

        Everything stays int32: ``indices`` is int32 by construction, so
        flat positions fit too, and halving the element width on the ~m-size
        temporaries is a measurable win on 10^5-node graphs.
        """
        indptr, indices, first_pos, degrees, rows = self._csr_views(csr)
        if rows is not None:
            # Constant-degree fast path: whole rows via one 2-D gather, in
            # frontier-then-row-order (= first-discovery input order).
            neighbours = np.take(rows, frontier, axis=0).ravel()
        else:
            starts = np.take(indptr, frontier)
            counts = np.take(degrees, frontier)
            total = int(counts.sum())
            if total == 0:
                return _EMPTY_INT32
            # Flat gather of every row entry: position t of the concatenation
            # maps to starts[row(t)] + offset-within-row(t).
            offsets = np.cumsum(counts, dtype=np.int32) - counts
            flat = np.repeat(starts - offsets, counts) + np.arange(
                total, dtype=np.int32
            )
            neighbours = np.take(indices, flat)
        # flatnonzero + take instead of boolean fancy indexing: the bool
        # mask path re-counts and re-scans per call and measures ~4x slower
        # on >10^5-entry pulls.
        unvisited = np.flatnonzero(np.take(mask, neighbours) == 0)
        size = unvisited.size
        if size == 0:
            return _EMPTY_INT32
        candidates = np.take(neighbours, unvisited)
        # First-discovery dedup without sorting: scatter each element's
        # position in *reverse* order, so the surviving write per value is
        # its first occurrence; an element equal to its own value's first
        # occurrence IS that first occurrence.  Filtering by that predicate
        # keeps the unique values in the scalar loop's exact append order
        # (dict insertion orders downstream depend on it).
        positions = np.arange(size, dtype=np.int32)
        first_pos[candidates[::-1]] = positions[::-1]
        reached = np.take(
            candidates,
            np.flatnonzero(np.take(first_pos, candidates) == positions),
        )
        mask[reached] = 1
        return reached

    def frontier_expand(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> List[int]:
        if len(frontier) < _SMALL_FRONTIER:
            return PureKernel.frontier_expand(self, csr, frontier, blocked)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        mask = np.frombuffer(blocked, dtype=np.uint8)
        return self._expand_array(csr, fr, mask).tolist()

    def bfs_layers(
        self,
        csr: Any,
        frontier: List[int],
        blocked: bytearray,
        max_radius: Optional[int] = None,
    ) -> List[List[int]]:
        layers: List[List[int]] = [frontier]
        mask = np.frombuffer(blocked, dtype=np.uint8)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        radius = 0
        while fr.size and (max_radius is None or radius < max_radius):
            if fr.size < _SMALL_FRONTIER:
                fr = np.fromiter(
                    PureKernel.frontier_expand(self, csr, fr.tolist(), blocked),
                    dtype=np.int32,
                )
            else:
                fr = self._expand_array(csr, fr, mask)
            if not fr.size:
                break
            layers.append(fr.tolist())
            radius += 1
        return layers

    def bfs_tree_parents(
        self, csr: Any, layers: List[List[int]]
    ) -> List[List[int]]:
        indptr, indices, _, _, rows = self._csr_views(csr)
        previous = np.zeros(csr.n, dtype=np.uint8)
        layer0 = np.fromiter(layers[0], count=len(layers[0]), dtype=np.int32)
        previous[layer0] = 1
        parents: List[List[int]] = []
        last = layer0
        for depth in range(1, len(layers)):
            layer = np.fromiter(
                layers[depth], count=len(layers[depth]), dtype=np.int32
            )
            if rows is not None:
                neighbours = np.take(rows, layer, axis=0)
                # First neighbour (ascending row order) in the previous
                # layer: argmax of the boolean hit matrix returns the first
                # maximum, i.e. the leftmost hit of each row.
                hits = np.take(previous, neighbours)
                first = np.argmax(hits, axis=1)
                chosen = neighbours[np.arange(layer.size), first]
            else:
                starts = np.take(indptr, layer)
                counts = np.take(indptr, layer + 1) - starts
                offsets = np.cumsum(counts, dtype=np.int32) - counts
                flat = np.repeat(starts - offsets, counts) + np.arange(
                    int(counts.sum()), dtype=np.int32
                )
                neighbours = np.take(indices, flat)
                hit_positions = np.flatnonzero(np.take(previous, neighbours))
                # Every node below layer 0 has a hit inside its own segment,
                # so the first hit at-or-after each segment start is it.
                firsts = np.take(
                    hit_positions, np.searchsorted(hit_positions, offsets)
                )
                chosen = np.take(neighbours, firsts)
            parents.append(chosen.tolist())
            previous[last] = 0
            previous[layer] = 1
            last = layer
        return parents

    def multi_source_bfs(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> Tuple[int, int]:
        depth = 0
        reached = len(frontier)
        mask = np.frombuffer(blocked, dtype=np.uint8)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        while fr.size:
            if fr.size < _SMALL_FRONTIER:
                fr = np.fromiter(
                    PureKernel.frontier_expand(self, csr, fr.tolist(), blocked),
                    dtype=np.int32,
                )
            else:
                fr = self._expand_array(csr, fr, mask)
            if not fr.size:
                break
            reached += fr.size
            depth += 1
        return depth, reached

    # ------------------------------------------------------------------ #
    # Weak-carving proposal engine
    # ------------------------------------------------------------------ #
    def _acquire_scratch(self, csr: Any) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Parked per-csr ``(labels, uids)`` int64 scratch, both all ``-1``.

        The carving recursion spawns one engine per participating piece;
        fresh n-sized arrays per engine would cost Θ(n²) over Θ(n) small
        pieces, so the arrays are parked on the csr (engines reset exactly
        the entries they touched on close).  A busy flag falls back to a
        fresh allocation under reentrancy.
        """
        entry = self._scratch.get(csr)
        if entry is None:
            entry = {
                "labels": np.full(csr.n, -1, dtype=np.int64),
                "uids": np.full(csr.n, -1, dtype=np.int64),
                "busy": False,
            }
            self._scratch[csr] = entry
        if entry["busy"]:
            return (
                np.full(csr.n, -1, dtype=np.int64),
                np.full(csr.n, -1, dtype=np.int64),
                False,
            )
        entry["busy"] = True
        return entry["labels"], entry["uids"], True

    def _release_scratch(self, csr: Any, owned: bool) -> None:
        if owned:
            entry = self._scratch.get(csr)
            if entry is not None:
                entry["busy"] = False

    def proposal_engine(
        self,
        csr: Any,
        participating: Iterable[Any],
        uid_of: Dict[Any, int],
    ) -> Optional[ProposalEngine]:
        uids = []
        for uid in uid_of.values():
            if not isinstance(uid, int) or isinstance(uid, bool) or uid < 0:
                return None
            uids.append(uid)
        if not uids:
            return None
        modulus = max(uids) + 1
        # Labels are always uids of participating nodes, so the composite
        # key label * M + uid stays below M**2; bail out to the reference
        # loop rather than risk int64 overflow on exotic identifier spaces.
        if modulus * modulus >= 2**63:
            return None
        return _NumpyProposalEngine(self, csr, participating, uid_of, modulus)


class _NumpyProposalEngine(ProposalEngine):
    """Frontier-driven vectorised proposal steps for one weak-carving run."""

    def __init__(
        self,
        kernel: NumpyKernel,
        csr: Any,
        participating: Iterable[Any],
        uid_of: Dict[Any, int],
        modulus: int,
    ) -> None:
        self._kernel = kernel
        self._csr = csr
        self._modulus = modulus
        (
            self._indptr,
            self._indices,
            _,
            self._degrees,
            self._rows,
        ) = kernel._csr_views(csr)
        index = csr.index
        part = sorted(index[node] for node in participating)
        self._part = np.fromiter(part, count=len(part), dtype=np.int32)
        self._labels, self._uids, self._owned = kernel._acquire_scratch(csr)
        nodes = csr.nodes
        uid_arr = np.fromiter(
            (uid_of[nodes[i]] for i in part), count=len(part), dtype=np.int64
        )
        self._labels[self._part] = uid_arr
        self._uids[self._part] = uid_arr
        self._bit = 0
        self._closed = False
        # The next step's scan set: ascending engine indices of every blue
        # node that may have an alive red neighbour (see resolve_step), as
        # an int32 array or, after a scalar step, a plain list.
        self._scan: Any = _EMPTY_INT32
        # Pending propose_step groups, settled by the next resolve_step:
        # index lists per group after a scalar step (None otherwise), else
        # the grouped members with per-group labels and lengths.
        self._step_groups: Optional[List[Tuple[int, List[int]]]] = None
        self._step_members = _EMPTY_INT32
        self._step_targets = np.empty(0, dtype=np.int64)
        self._step_lengths = np.empty(0, dtype=np.int64)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Reset exactly the entries this engine touched so the parked
        # scratch is all -1 again for the next engine on this csr.
        self._labels[self._part] = -1
        self._uids[self._part] = -1
        self._kernel._release_scratch(self._csr, self._owned)

    # -- proposal steps ------------------------------------------------- #
    def start_phase(self, bit: int) -> None:
        self._bit = bit
        labels = np.take(self._labels, self._part)
        # Dead nodes carry label -1 (arithmetic shift keeps the sign bit,
        # so the alive test below excludes them from blue).  The phase's
        # first step scans the whole blue set, in ascending index order.
        blue = (labels >= 0) & (((labels >> bit) & 1) == 0)
        self._scan = np.take(self._part, np.flatnonzero(blue))

    def red_cluster_sizes(self) -> Dict[int, int]:
        labels = np.take(self._labels, self._part)
        red = np.take(
            labels,
            np.flatnonzero((labels >= 0) & (((labels >> self._bit) & 1) == 1)),
        )
        uniques, counts = np.unique(red, return_counts=True)
        return dict(zip(uniques.tolist(), counts.tolist()))

    def _gather(self, nodes: np.ndarray) -> Tuple[np.ndarray, Any]:
        """Concatenated adjacency rows of ``nodes`` plus the row lengths.

        The lengths are the per-node degree array, or the common degree
        (an ``int``) on constant-degree graphs.
        """
        rows = self._rows
        if rows is not None:
            # Constant-degree fast path (torus / random-regular / cycle):
            # one 2-D row gather replaces the flat-position construction.
            return np.take(rows, nodes, axis=0).ravel(), rows.shape[1]
        starts = np.take(self._indptr, nodes)
        counts = np.take(self._degrees, nodes)
        total = int(counts.sum())
        offsets = np.cumsum(counts, dtype=np.int32) - counts
        flat = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int32)
        return np.take(self._indices, flat), counts

    def _propose_arrays(
        self, scan: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The raw per-proposer step result: ``(targets, proposers, vias)``.

        ``proposers`` are engine-space node indices in scan order (the
        order the scalar loop would emit), ``targets`` the chosen red labels
        and ``vias`` the minimising neighbour per proposer.  Returns ``None``
        when no scanned node has an alive red neighbour.
        """
        bit = self._bit
        neighbours, counts = self._gather(scan)
        owner = np.repeat(np.arange(scan.size, dtype=np.int32), counts)
        neighbour_labels = np.take(self._labels, neighbours)
        # Alive red neighbours only: dead and non-participating indices
        # carry label -1, blue neighbours have bit `bit` clear.
        red = np.flatnonzero(
            (neighbour_labels >= 0) & (((neighbour_labels >> bit) & 1) == 1)
        )
        if red.size == 0:
            return None
        neighbours = np.take(neighbours, red)
        owner = np.take(owner, red)
        neighbour_labels = np.take(neighbour_labels, red)
        key = neighbour_labels * self._modulus + np.take(self._uids, neighbours)
        # Segment minimum per proposing blue node.  `owner` is ascending
        # (rows were concatenated in scan order), so segments are the runs
        # of equal owner values — all non-empty by construction, which is
        # what makes reduceat safe here.
        segment_starts = np.flatnonzero(
            np.r_[True, owner[1:] != owner[:-1]]
        )
        minima = np.minimum.reduceat(key, segment_starts)
        segment_lengths = np.diff(np.r_[segment_starts, key.size])
        hits = np.flatnonzero(key == np.repeat(minima, segment_lengths))
        # Distinct neighbours have distinct uids, hence distinct keys, so
        # each segment has exactly one hit; searchsorted keeps the first
        # hit per segment regardless.
        firsts = np.take(hits, np.searchsorted(hits, segment_starts))
        return (
            np.take(neighbour_labels, firsts),
            np.take(scan, np.take(owner, firsts)),
            np.take(neighbours, firsts),
        )

    def propose_step(self) -> List[Tuple[int, List[Any], List[Any]]]:
        scan = self._scan
        if len(scan) < _SMALL_BLUE:
            return self._propose_scalar(scan) if len(scan) else []
        step = self._propose_arrays(np.asarray(scan, dtype=np.int32))
        if step is None:
            return []
        self._step_groups = None
        targets, proposers, vias = step
        # Group by target label, ascending — exactly the order the per-node
        # driver visits `sorted(proposals.items())` — with each group's
        # proposers kept in scan order (stable sort).
        order = np.argsort(targets, kind="stable")
        targets = np.take(targets, order)
        proposers = np.take(proposers, order)
        vias = np.take(vias, order)
        bounds = np.flatnonzero(np.r_[True, targets[1:] != targets[:-1]])
        group_targets = np.take(targets, bounds)
        # Pending until resolve_step: the step's proposers (grouped) plus
        # per-group labels/lengths, so the verdicts land in ONE scatter.
        self._step_members = proposers
        self._step_targets = group_targets
        self._step_lengths = np.diff(np.r_[bounds, targets.size])
        ends = np.r_[bounds[1:], targets.size]
        # Bulk node materialisation: one C-level map over the whole step,
        # then plain list slices per group.  Most steps produce thousands of
        # very small groups, so per-group numpy work (slice + tolist + map)
        # costs more than the whole step's bookkeeping.
        resolve = self._csr.nodes.__getitem__
        proposer_nodes = list(map(resolve, proposers.tolist()))
        via_nodes = list(map(resolve, vias.tolist()))
        groups: List[Tuple[int, List[Any], List[Any]]] = []
        for start, end, target in zip(
            bounds.tolist(), ends.tolist(), group_targets.tolist()
        ):
            groups.append(
                (target, proposer_nodes[start:end], via_nodes[start:end])
            )
        return groups

    def resolve_step(self, decisions: List[bool]) -> None:
        if self._step_groups is not None:
            self._resolve_scalar(decisions)
            return
        flags = np.fromiter(decisions, count=len(decisions), dtype=bool)
        lengths = self._step_lengths
        members = self._step_members
        labels = self._labels
        # Accepted groups take their target label, rejected ones -1 (dead):
        # one np.repeat + one scatter settles the whole step.
        labels[members] = np.repeat(np.where(flags, self._step_targets, -1), lengths)
        # Frontier: red nodes never change label and never die within a
        # phase, and a blue node that did not propose this step had no
        # alive red neighbour, so the only blue nodes that can propose next
        # step are the alive blue neighbours of this step's joiners, taken
        # ascending and deduplicated (the full blue scan's order).
        joiners = np.take(members, np.flatnonzero(np.repeat(flags, lengths)))
        if joiners.size == 0:
            self._scan = _EMPTY_INT32
            return
        neighbours, _ = self._gather(joiners)
        neighbour_labels = np.take(labels, neighbours)
        blue = np.flatnonzero(
            (neighbour_labels >= 0) & (((neighbour_labels >> self._bit) & 1) == 0)
        )
        # Sort + adjacent difference instead of np.unique, whose hashing
        # path measures ~10x slower on these int32 candidate arrays.
        candidates = np.sort(np.take(neighbours, blue))
        self._scan = np.take(
            candidates, np.flatnonzero(np.diff(candidates, prepend=-1))
        )

    def _propose_scalar(self, scan: Any) -> List[Tuple[int, List[Any], List[Any]]]:
        """Scalar fallback for tiny scan sets (same rule, same results).

        Reads the csr's own ``indptr``/``indices`` buffers (plain ints, no
        numpy scalar boxing) and keeps the step's members as index lists
        for :meth:`_resolve_scalar`.
        """
        if isinstance(scan, np.ndarray):
            scan = scan.tolist()
        bit = self._bit
        indptr, indices = self._csr.indptr, self._csr.indices
        label_at, uid_at = self._labels.item, self._uids.item
        proposals: Dict[int, List[Tuple[int, int]]] = {}
        for u in scan:
            best_label = -1
            best_uid = -1
            via = -1
            for v in indices[indptr[u] : indptr[u + 1]]:
                neighbour_label = label_at(v)
                if neighbour_label < 0 or not (neighbour_label >> bit) & 1:
                    continue
                if via < 0 or neighbour_label < best_label:
                    best_label = neighbour_label
                    best_uid = uid_at(v)
                    via = v
                elif neighbour_label == best_label:
                    neighbour_uid = uid_at(v)
                    if neighbour_uid < best_uid:
                        best_uid = neighbour_uid
                        via = v
            if via >= 0:
                proposals.setdefault(best_label, []).append((u, via))
        nodes = self._csr.nodes
        step_groups: List[Tuple[int, List[int]]] = []
        groups: List[Tuple[int, List[Any], List[Any]]] = []
        for target in sorted(proposals):
            pairs = proposals[target]
            step_groups.append((target, [u for u, _ in pairs]))
            groups.append(
                (target, [nodes[u] for u, _ in pairs], [nodes[v] for _, v in pairs])
            )
        self._step_groups = step_groups
        return groups

    def _resolve_scalar(self, decisions: List[bool]) -> None:
        """:meth:`resolve_step` for a scalar step: the same scatter and
        frontier rule, one node at a time."""
        labels = self._labels
        joiners: List[int] = []
        for (target, members), accept in zip(self._step_groups, decisions):
            value = target if accept else -1
            for u in members:
                labels[u] = value
            if accept:
                joiners.extend(members)
        bit = self._bit
        indptr, indices = self._csr.indptr, self._csr.indices
        label_at = labels.item
        scan = set()
        for u in joiners:
            for v in indices[indptr[u] : indptr[u + 1]]:
                neighbour_label = label_at(v)
                if neighbour_label >= 0 and not (neighbour_label >> bit) & 1:
                    scan.add(v)
        self._scan = sorted(scan)
