"""The Approximate Causal DAG (AC-DAG), paper Section 4.

Nodes are the fully-discriminative predicates plus the failure predicate
F; there is an edge P1 → P2 iff P1 temporally precedes P2 (per the
active :class:`~repro.core.precedence.PrecedencePolicy`) in **every**
failed log.  That relation is transitive, so it is stored transitively
closed as a successor map ``pid -> {pids it precedes}`` plus the inverse
predecessor map: reachability (the paper's ``P1 ⤳ P2``) is a set lookup.

Guarantees established at build time:

* the graph is acyclic (enforced; see precedence module for why the
  anchor construction makes this structural);
* F is a node, and only *ancestors of F* are kept — a predicate with no
  temporal path to the failure cannot cause it (this is the step that
  discarded 30 of 72 predicates in the paper's Kafka case study);
* every kept predicate is observed in all failed logs (fully
  discriminative ⇒ recall 100%), realizing the counterfactual-causality
  exclusion rule of Section 4.

The class also provides the structural queries the intervention
algorithms need: topological levels, minimal elements ("lowest
topological level"), branch decomposition at junctions (Algorithm 2
line 10), and destructive node removal as pruning proceeds.  Every
mutation only removes nodes or edges of a closed relation (or
intersects closed relations), so the closure is never recomputed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .precedence import PrecedencePolicy, default_policy
from .predicates import PredicateDef
from .statistical import PredicateLog


class GraphInvariantError(RuntimeError):
    """The AC-DAG would violate a structural invariant (e.g. a cycle)."""


@dataclass
class Branch:
    """An independent branch at a junction (Algorithm 2, lines 10-11).

    ``head`` is the minimal predicate the branch is rooted at;
    ``members`` is ``{head} ∪ {Q : head ⤳ Q, no sibling reaches Q}``.
    Intervening on the branch means intervening on *all* members (a
    disjunction is false only when every disjunct is false).
    """

    head: str
    members: frozenset[str]

    @property
    def pid(self) -> str:
        return f"branch[{self.head}]"

    def __len__(self) -> int:
        return len(self.members)


class ACDag:
    """The approximate causal DAG over predicate ids; ``succ`` maps each
    pid to the pids it precedes and must already be transitively closed."""

    def __init__(
        self,
        succ: Mapping[str, Iterable[str]],
        failure: str,
        defs: Optional[dict[str, PredicateDef]] = None,
        discarded: Optional[dict[str, str]] = None,
        n_failed_logs: int = 0,
    ) -> None:
        nodes = set(succ).union(*succ.values())
        self._succ: dict[str, set[str]] = {p: set(succ.get(p, ())) for p in nodes}
        self._pred: dict[str, set[str]] = {p: set() for p in nodes}
        for p, qs in self._succ.items():
            for q in qs:
                self._pred[q].add(p)
        if failure not in self._succ:
            raise GraphInvariantError(f"failure predicate {failure!r} not in graph")
        if len(self.topological_order()) < len(self._succ):
            raise GraphInvariantError("AC-DAG contains a cycle")
        self.failure = failure
        self.defs = defs or {}
        #: pid -> reason, for predicates dropped during construction
        self.discarded = discarded or {}
        #: how many failed logs support this DAG (every edge holds in
        #: all of them)
        self.n_failed_logs = n_failed_logs

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        defs: dict[str, PredicateDef],
        failed_logs: Sequence[PredicateLog],
        failure: str,
        policy: Optional[PrecedencePolicy] = None,
        candidate_pids: Optional[Iterable[str]] = None,
    ) -> "ACDag":
        """Build the AC-DAG from fully-discriminative predicates.

        Parameters
        ----------
        defs:
            Predicate definitions (must cover every candidate pid).
        failed_logs:
            Logs of failed executions; temporal precedence must hold in
            all of them for an edge to exist.
        failure:
            The pid of the failure-indicating predicate F.
        policy:
            Precedence policy; defaults to the kind-anchored policy.
        candidate_pids:
            The fully-discriminative predicate ids (defaults to all of
            ``defs``).  F is always included.
        """
        if not failed_logs:
            raise GraphInvariantError("cannot build an AC-DAG without failed logs")
        policy = policy or default_policy()
        pids = set(candidate_pids) if candidate_pids is not None else set(defs)
        pids.add(failure)
        discarded: dict[str, str] = {}

        # Anchor timestamps per (log, pid).  A fully-discriminative
        # predicate must be observed in every failed log; drop violators
        # defensively (can happen when callers pass a lax candidate set).
        anchors: dict[str, list[float]] = {}
        for pid in sorted(pids):
            series: list[float] = []
            for log in failed_logs:
                obs = log.time_of(pid)
                if obs is None:
                    break
                series.append(policy.anchor(defs[pid], obs))
            if len(series) == len(failed_logs):
                anchors[pid] = series
            else:
                discarded[pid] = "not observed in every failed log"
        if failure not in anchors:
            raise GraphInvariantError(
                f"failure predicate {failure!r} unobserved in some failed log"
            )

        # "Precedes in every failed log" is transitive, so pairwise
        # tests alone yield the closed relation.
        succ: dict[str, set[str]] = {pid: set() for pid in anchors}
        nodes = sorted(set(anchors) - {failure})
        for i, p1 in enumerate(nodes):
            for p2 in nodes[i + 1 :]:
                s1, s2 = anchors[p1], anchors[p2]
                if all(a < b for a, b in zip(s1, s2)):
                    succ[p1].add(p2)
                elif all(b < a for a, b in zip(s1, s2)):
                    succ[p2].add(p1)
        # F is the terminal event of a failed execution: predicates that
        # never anchor after it precede it (ties allowed — the crash is
        # recorded at the instant its method dies).  Predicates anchored
        # strictly after F (post-crash cleanup) cannot cause it.
        f_series = anchors[failure]
        for pid in nodes:
            series = anchors[pid]
            if all(a <= f for a, f in zip(series, f_series)):
                succ[pid].add(failure)
            elif all(f < a for a, f in zip(series, f_series)):
                succ[failure].add(pid)

        dag = cls(
            succ,
            failure=failure,
            defs=dict(defs),
            discarded=discarded,
            n_failed_logs=len(failed_logs),
        )
        # Keep only predicates that may cause F: its ancestors.
        dag._prune_non_ancestors()
        return dag

    @classmethod
    def merge(cls, dags: Sequence["ACDag"]) -> "ACDag":
        """Merge AC-DAGs built over disjoint failed-log sets into the DAG
        a single build over all logs yields.

        An edge means "precedes in *every* failed log", so the merged
        edge set is the intersection of the per-slice edge sets and the
        failed-log counts add up; nodes must survive every
        slice (a slice that discarded a pid proves the global build
        would too, since fewer logs can only *add* edges and therefore
        ancestors).  The ancestors-of-F filter is re-applied at the end.
        The merge is order-insensitive, hence deterministic however the
        slices were scheduled.
        """
        if not dags:
            raise GraphInvariantError("cannot merge zero AC-DAGs")
        first = dags[0]
        if any(d.failure != first.failure for d in dags):
            raise GraphInvariantError(
                "cannot merge AC-DAGs with different failure predicates"
            )
        if len(dags) == 1:
            return first.copy()
        nodes = set(first._succ).intersection(*(d._succ for d in dags[1:]))
        succ = {
            p: first._succ[p].intersection(nodes, *(d._succ[p] for d in dags[1:]))
            for p in nodes
        }
        discarded: dict[str, str] = {}
        for d in dags:
            discarded.update(d.discarded)
        for pid in set(first._succ) - nodes:
            discarded.setdefault(pid, "not observed in every failed log")
        merged = cls(
            succ,
            failure=first.failure,
            defs=dict(first.defs),
            discarded=discarded,
            n_failed_logs=sum(d.n_failed_logs for d in dags),
        )
        merged._prune_non_ancestors()
        return merged

    # -- incremental maintenance (corpus ingestion) -------------------------
    #
    # The edge relation is "P1 precedes P2 in every failed log", so a new
    # failed log can only *remove* edges (an edge that held in all n logs
    # either also holds in log n+1 or it dies).  Node-wise, the candidate
    # set is the fully-discriminative set, which likewise only shrinks
    # under insertions (see IncrementalDebugger).  Both facts together
    # make the AC-DAG maintainable without a rebuild; tests assert the
    # patched graph equals `ACDag.build` over the whole log history.

    def update_failed_log(
        self, log: PredicateLog, policy: Optional[PrecedencePolicy] = None
    ) -> set[str]:
        """Patch the DAG under one newly-ingested failed log.

        Drops nodes the log does not observe (their recall just fell
        below 1), drops edges whose precedence the log contradicts, and
        re-applies the ancestors-of-F filter.  Returns every pid removed.
        A log that does not observe F is rejected before anything changes.
        """
        if log.time_of(self.failure) is None:
            raise GraphInvariantError(
                f"failure predicate {self.failure!r} unobserved in "
                "an ingested failed log (wrong failure signature?)"
            )
        policy = policy or default_policy()
        removed: set[str] = set()
        anchors: dict[str, float] = {}
        for pid in sorted(self._succ):
            obs = log.time_of(pid)
            if obs is None:
                removed.add(pid)
                self.discarded[pid] = "not observed in every failed log"
            else:
                anchors[pid] = policy.anchor(self.defs[pid], obs)
        self._drop(removed)
        for a, bs in self._succ.items():
            # Ties with F are allowed (the crash is recorded at the
            # instant its method dies); all other precedence is strict.
            contradicted = {
                b
                for b in bs
                if not (
                    anchors[a] <= anchors[b]
                    if b == self.failure
                    else anchors[a] < anchors[b]
                )
            }
            bs -= contradicted
            for b in contradicted:
                self._pred[b].discard(a)
        self.n_failed_logs += 1
        removed |= self._prune_non_ancestors()
        return removed

    def restrict_to(self, pids: Iterable[str]) -> set[str]:
        """Drop nodes outside ``pids`` (F is always kept), then re-apply
        the ancestors-of-F filter.  Used when a newly-ingested
        *successful* log breaks some predicates' precision.  Returns
        every pid removed."""
        keep = set(pids) | {self.failure}
        removed = set(self._succ) - keep
        for pid in removed:
            self.discarded[pid] = "no longer fully discriminative"
        self._drop(removed)
        return removed | self._prune_non_ancestors()

    def _prune_non_ancestors(self) -> set[str]:
        """Re-apply the build-time rule: only ancestors of F may stay."""
        doomed = set(self._succ) - self._pred[self.failure] - {self.failure}
        for pid in sorted(doomed):
            self.discarded[pid] = "no temporal path to the failure predicate"
        self._drop(doomed)
        return doomed

    def _drop(self, pids: Iterable[str]) -> None:
        """Remove nodes and their edges; the rest stays closed."""
        for pid in pids:
            for q in self._succ.pop(pid):
                self._pred[q].discard(pid)
            for q in self._pred.pop(pid):
                self._succ[q].discard(pid)

    def structure(self) -> tuple[frozenset, frozenset]:
        """(nodes, edges) — the comparable shape, for equality asserts."""
        return frozenset(self._succ), frozenset(
            (a, b) for a, bs in self._succ.items() for b in bs
        )

    # -- basic queries -----------------------------------------------------

    @property
    def predicates(self) -> set[str]:
        """All candidate predicates (excluding F)."""
        return set(self._succ) - {self.failure}

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, pid: str) -> bool:
        return pid in self._succ

    def reaches(self, a: str, b: str) -> bool:
        """The paper's ``a ⤳ b`` (graph is transitively closed)."""
        return b in self._succ.get(a, ())

    def minimal_elements(self, among: Optional[Iterable[str]] = None) -> list[str]:
        """Nodes with no predecessor inside ``among`` ("lowest level")."""
        pool = set(among) if among is not None else set(self._succ)
        return sorted(p for p in pool if self._pred[p].isdisjoint(pool))

    def topological_order(self, among: Optional[Iterable[str]] = None) -> list[str]:
        """A deterministic topological order of ``among``.

        Ties (incomparable nodes) break lexicographically; intervention
        algorithms may re-break them randomly per the paper.  Pids that
        are not nodes are ignored.  On a cyclic relation the order is
        shorter than the pool (the constructor's cycle check).
        """
        pool = set(self._succ) if among is None else set(among) & self._succ.keys()
        indegree = {p: len(self._pred[p] & pool) for p in pool}
        ready = [p for p, n in indegree.items() if n == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            p = heapq.heappop(ready)
            order.append(p)
            for q in self._succ[p] & pool:
                indegree[q] -= 1
                if indegree[q] == 0:
                    heapq.heappush(ready, q)
        return order

    def topological_levels(
        self, among: Optional[Iterable[str]] = None
    ) -> list[list[str]]:
        """Antichain levels: level k = minimal elements after removing <k."""
        pool = set(among) if among is not None else set(self._succ)
        levels: list[list[str]] = []
        while pool:
            level = self.minimal_elements(pool)
            levels.append(level)
            pool -= set(level)
        return levels

    # -- branch decomposition (Algorithm 2) ---------------------------------

    def branches_at(self, heads: Sequence[str]) -> list[Branch]:
        """Branch decomposition at a junction with the given heads.

        ``B_P = P ∨ {Q : P ⤳ Q and ∀P' ≠ P at the junction, P' ̸⤳ Q}``.
        Shared descendants (merge points) belong to no branch.
        """
        branches = []
        head_set = set(heads)
        for head in sorted(heads):
            exclusive = {
                q
                for q in self._succ[head]
                if q != self.failure
                and not any(
                    self.reaches(other, q) for other in head_set - {head}
                )
            }
            branches.append(Branch(head=head, members=frozenset({head} | exclusive)))
        return branches

    # -- mutation ------------------------------------------------------------

    def remove(self, pids: Iterable[str]) -> None:
        self._drop({p for p in pids if p in self._succ} - {self.failure})

    def copy(self) -> "ACDag":
        return ACDag(
            self._succ,
            failure=self.failure,
            defs=dict(self.defs),
            discarded=dict(self.discarded),
            n_failed_logs=self.n_failed_logs,
        )

    # -- presentation --------------------------------------------------------

    def to_dot(self) -> str:
        """A Graphviz rendering of the transitive reduction: ``a -> b``
        is drawn iff no node lies between them."""
        lines = ["digraph acdag {", "  rankdir=TB;"]
        for node in sorted(self._succ):
            shape = "doubleoctagon" if node == self.failure else "box"
            lines.append(f'  "{node}" [shape={shape}];')
        for a, b in sorted(self.structure()[1]):
            if self._succ[a].isdisjoint(self._pred[b]):
                lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)

    def describe(self, pid: str) -> str:
        pred = self.defs.get(pid)
        return pred.description if pred is not None else pid
