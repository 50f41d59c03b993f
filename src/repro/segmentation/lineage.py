"""Feature lineage graph — following features through their whole history.

Chen et al.'s "feature tree" (the paper's ref. [3]) organizes tracked
features so correspondences survive across *"refinement levels, time
steps, and processors"*.  The temporal slice of that idea is a directed
acyclic graph: one node per (time step, feature id), one edge per spatial
overlap between consecutive steps.  The Fig. 9 questions — "which features
descend from the one I selected?", "when did it split?", "how did its
volume evolve?" — become graph queries.

The graph is a small in-module DAG (:class:`LineageGraph`: node
attributes plus successor/predecessor maps), with the overlap
computation reusing :func:`repro.segmentation.events.overlap_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.segmentation.components import feature_attributes, label_components
from repro.segmentation.events import overlap_graph


class LineageGraph:
    """Directed graph of feature occurrences.

    The subset of a ``networkx.DiGraph`` the lineage needs: ``nodes[n]``
    is the node's attribute dict, adjacency keeps insertion order, and
    :meth:`descendants` / :meth:`ancestors` are reachability sets.
    """

    def __init__(self) -> None:
        self.nodes: dict = {}
        self._succ: dict = {}
        self._pred: dict = {}

    def add_node(self, node, **attrs) -> None:
        """Add ``node`` with its attributes."""
        self.nodes[node] = attrs
        self._succ[node] = []
        self._pred[node] = []

    def add_edge(self, u, v) -> None:
        """Add the edge ``u -> v`` between two added nodes."""
        self._succ[u].append(v)
        self._pred[v].append(u)

    def number_of_nodes(self) -> int:
        """Node count."""
        return len(self.nodes)

    def number_of_edges(self) -> int:
        """Edge count."""
        return sum(len(out) for out in self._succ.values())

    def successors(self, node):
        """Direct successors of ``node``."""
        return iter(self._succ[node])

    def predecessors(self, node):
        """Direct predecessors of ``node``."""
        return iter(self._pred[node])

    def descendants(self, node) -> set:
        """Every node reachable from ``node`` (excluding itself)."""
        return self._reachable(node, self._succ)

    def ancestors(self, node) -> set:
        """Every node that reaches ``node`` (excluding itself)."""
        return self._reachable(node, self._pred)

    @staticmethod
    def _reachable(node, adjacency: dict) -> set:
        seen: set = set()
        stack = [node]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


@dataclass(frozen=True)
class FeatureNode:
    """Identifier of one feature occurrence: ``(time, label)``."""

    time: int
    label: int


class FeatureLineage:
    """Temporal feature graph over a sequence of criterion masks.

    Parameters
    ----------
    masks:
        Per-step boolean masks (extraction output).
    times:
        Simulation step ids (defaults to 0, 1, …).
    min_overlap:
        Voxel-overlap threshold for a correspondence edge.
    connectivity:
        Component connectivity within each step.
    """

    def __init__(self, masks, times=None, min_overlap: int = 1,
                 connectivity: int = 1) -> None:
        masks = [np.asarray(m, dtype=bool) for m in masks]
        if not masks:
            raise ValueError("need at least one step")
        if times is None:
            times = list(range(len(masks)))
        times = [int(t) for t in times]
        if len(times) != len(masks):
            raise ValueError("times and masks must have equal length")
        self.times = times
        self.graph = LineageGraph()
        self._labelings = []
        prev_labels = None
        for step, (mask, time) in enumerate(zip(masks, times)):
            labels, count = label_components(mask, connectivity=connectivity)
            self._labelings.append(labels)
            for attr in feature_attributes(labels, count):
                node = FeatureNode(time, attr.label)
                self.graph.add_node(node, voxels=attr.voxels,
                                    centroid=attr.centroid, step=step)
            if prev_labels is not None:
                for a, b in overlap_graph(prev_labels, labels,
                                          min_overlap=min_overlap):
                    self.graph.add_edge(FeatureNode(times[step - 1], a),
                                        FeatureNode(time, b))
            prev_labels = labels

    # ------------------------------------------------------------------ #
    def node_at(self, time: int, point) -> FeatureNode:
        """The feature occurrence containing voxel ``point`` at ``time``."""
        step = self.times.index(int(time))
        label = int(self._labelings[step][tuple(int(c) for c in point)])
        if label == 0:
            raise ValueError(f"no feature at {tuple(point)} in step {time}")
        return FeatureNode(int(time), label)

    def descendants(self, node: FeatureNode) -> set:
        """All future occurrences reachable from ``node``."""
        return self.graph.descendants(node)

    def ancestors(self, node: FeatureNode) -> set:
        """All past occurrences leading to ``node``."""
        return self.graph.ancestors(node)

    def lineage_mask_stack(self, node: FeatureNode) -> np.ndarray:
        """4D mask of ``node`` plus all its descendants, step-aligned."""
        selected = {node} | self.descendants(node)
        stack = np.zeros((len(self.times), *self._labelings[0].shape), dtype=bool)
        for n in selected:
            step = self.times.index(n.time)
            stack[step] |= self._labelings[step] == n.label
        return stack

    def events_along(self, node: FeatureNode) -> list[tuple[str, int, int]]:
        """Split/merge/death events on the node's descendant subgraph.

        Returns ``(kind, time_a, time_b)`` tuples, chronological.
        """
        selected = {node} | self.descendants(node)
        events = []
        for n in sorted(selected, key=lambda m: (m.time, m.label)):
            succ = [s for s in self.graph.successors(n) if s in selected]
            step = self.times.index(n.time)
            if step + 1 < len(self.times):
                next_time = self.times[step + 1]
                if len(succ) == 0:
                    events.append(("death", n.time, next_time))
                elif len(succ) >= 2:
                    events.append(("split", n.time, next_time))
            preds_of_succ = {
                s: [p for p in self.graph.predecessors(s) if p in selected]
                for s in succ
            }
            for s, preds in preds_of_succ.items():
                if len(preds) >= 2 and n == max(preds, key=lambda m: m.label):
                    events.append(("merge", n.time, s.time))
        return events

    def volume_history(self, node: FeatureNode) -> list[tuple[int, int]]:
        """Total descendant voxel count per step: ``(time, voxels)``."""
        selected = {node} | self.descendants(node)
        per_time: dict[int, int] = {}
        for n in selected:
            per_time[n.time] = per_time.get(n.time, 0) + self.graph.nodes[n]["voxels"]
        return sorted(per_time.items())

    @property
    def n_features(self) -> int:
        """Total feature occurrences across all steps."""
        return self.graph.number_of_nodes()
