"""Tree samplers and tree statistics on the one tree type, Tree."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .dislocation import sample_split
from .partitions import Hierarchy, Partition

_FMT = repr  # shortest round-trip decimal for golden files


@dataclass
class Tree:
    """Rooted tree with labelled leaves: a hierarchy on [n], or the same
    hierarchy embedded in a continuum tree.

    Without `length` every edge has length 1 and every internal vertex has
    >= 2 children (grown and branching trees).  With `length` (node -> length
    of the edge to its parent) the tree is a reduced tree or a CRT sample,
    hung below a degree-1 virtual root.  The set-of-subsets view demanded by
    the hierarchy formalism is derived lazily, so that sequential growth
    stays O(1) amortized per insertion.
    """

    children: dict          # node id -> list of child ids (internal nodes only)
    leaf_label: dict        # node id -> leaf label
    root: int
    length: dict = None     # node id -> edge length; None: unit edges
    _parent_of: dict = field(default=None, repr=False, compare=False)

    @property
    def parent_of(self):
        """node id -> parent id, built on first use."""
        if self._parent_of is None:
            self._parent_of = {c: v for v, cs in self.children.items() for c in cs}
        return self._parent_of

    @property
    def leaf_labels(self):
        """Read-only alias of leaf_label, kept while the benchmark workloads
        read this name; it goes with the next change to the benchmark."""
        return self.leaf_label

    @property
    def n(self):
        return len(self.leaf_label)

    def _top(self):
        """The root, or the vertex below a chain of degree-1 virtual roots."""
        top = self.root
        while top not in self.leaf_label and len(self.children[top]) == 1:
            top = self.children[top][0]
        return top

    def labels_under(self, v):
        """Sorted leaf labels below v (inclusive)."""
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            if u in self.leaf_label:
                out.append(self.leaf_label[u])
            else:
                stack.extend(self.children.get(u, ()))
        return sorted(out)

    def root_split(self):
        """Partition of [n] by the root's children (a virtual root skipped)."""
        top = self._top()
        if top in self.leaf_label:
            raise ArgumentError("a single leaf has no root split")
        return Partition.from_blocks(self.n, [self.labels_under(c)
                                              for c in self.children[top]])

    def _postorder(self, start=None):
        order, stack = [], [self.root if start is None else start]
        while stack:
            u = stack.pop()
            order.append(u)
            if u in self.children:
                stack.extend(self.children[u])
        order.reverse()
        return order

    def _label_sets(self):
        """node id -> frozenset of the leaf labels below it."""
        sets = {}
        for u in self._postorder():
            if u in self.leaf_label:
                sets[u] = frozenset({self.leaf_label[u]})
            else:
                sets[u] = frozenset().union(*(sets[c] for c in self.children[u]))
        return sets

    @property
    def vertices(self):
        """The hierarchy view: frozenset of leaf-label frozensets, root included."""
        return frozenset(self._label_sets().values())

    @property
    def parent(self):
        """Vertex-set to parent-vertex-set mapping for every non-root vertex."""
        sets = self._label_sets()
        par = self.parent_of
        top = self._top()
        return {sets[u]: sets[par[u]] for u in self._postorder(top) if u != top}

    def to_hierarchy(self):
        return Hierarchy.from_sets(self.n, self.vertices)

    def validate(self):
        """Unit edges: internal vertices have >= 2 children, the leaves carry
        1..n and the label sets form a hierarchy.  With lengths: no length is
        negative and no vertex is reached twice."""
        if self.length is None:
            if any(len(cs) < 2 for cs in self.children.values()):
                raise ArgumentError("internal vertex with fewer than 2 children")
            if sorted(self.leaf_label.values()) != list(range(1, self.n + 1)):
                raise ArgumentError("leaf labels must be 1..n")
            self.to_hierarchy()
            return
        if any(l < 0 for l in self.length.values()):
            raise ArgumentError("negative edge length")
        seen = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v in seen:
                raise ArgumentError("cycle in tree")
            seen.add(v)
            stack.extend(self.children.get(v, []))

    def scaled(self, factor):
        """The same tree with every edge length multiplied by factor."""
        if self.length is None:
            raise ArgumentError("only a tree with edge lengths can be scaled")
        return Tree(self.children, self.leaf_label, self.root,
                    {v: l * factor for v, l in self.length.items()})

    def leaf_node(self, label):
        for u, lab in self.leaf_label.items():
            if lab == label:
                return u
        raise ArgumentError(f"no leaf labelled {label}")

    def to_text(self):
        """Parenthesized labelled form, children ordered by least label, with
        :length suffixes on every non-root vertex when the tree has lengths."""
        least, text = {}, {}
        for u in self._postorder():
            if u in self.leaf_label:
                least[u] = self.leaf_label[u]
                head = str(least[u])
            else:
                kids = sorted(self.children[u], key=least.__getitem__)
                least[u] = least[kids[0]]
                head = "(" + ",".join(text.pop(c) for c in kids) + ")"
            text[u] = head if self.length is None or u == self.root \
                else head + ":" + _FMT(self.length[u])
        return text[self.root]

    def shape_text(self):
        """Canonical delabelled form (children sorted lexicographically),
        lengths dropped and a degree-1 virtual root not displayed."""
        top, shape = self._top(), {}
        for u in self._postorder(top):
            shape[u] = "*" if u in self.leaf_label else \
                "(" + ",".join(sorted(shape.pop(c) for c in self.children[u])) + ")"
        return shape[top]


def grow_alphagamma(alpha, gamma, n, rng):
    """Sequential growth: leaf edge weight 1-a, inner edge g, vertex (k-1)a - g.

    Internal nodes are kept as a token list with node B repeated k_B - 1 times,
    so total vertex weight is a * len(tokens) and an inner-edge versus vertex
    choice at B is a single accept step with probability g / ((k_B - 1) a).
    """
    if not (0 <= gamma <= alpha <= 1):
        raise ArgumentError("need 0 <= gamma <= alpha <= 1")
    if n < 1:
        raise ArgumentError("n must be positive")
    children = {}
    leaf_label = {0: 1}
    parent_of = {}
    root = 0
    next_id = 1
    leaves = [0]
    tokens = []

    def edge_insert(v, new_label):
        nonlocal root, next_id
        p, leaf = next_id, next_id + 1
        next_id += 2
        children[p] = [v, leaf]
        leaf_label[leaf] = new_label
        if v == root:
            root = p
        else:
            g = parent_of[v]
            children[g][children[g].index(v)] = p
            parent_of[p] = g
        parent_of[v] = p
        parent_of[leaf] = p
        leaves.append(leaf)
        tokens.append(p)

    for m in range(1, n):
        # selection weights: m(1-a) on leaf edges, a per token; they sum to m - a
        assert len(tokens) == m - 1
        w_leaf = m * (1 - alpha)
        w_tok = alpha * len(tokens)
        total = w_leaf + w_tok
        assert abs(total - (m - alpha)) < 1e-9
        if total <= 0 or rng.random() * total < w_leaf:
            v = leaves[rng.integers(len(leaves))]
            edge_insert(v, m + 1)
            continue
        B = tokens[rng.integers(len(tokens))]
        kb = len(children[B])
        if rng.random() < gamma / ((kb - 1) * alpha):
            edge_insert(B, m + 1)
        else:
            leaf = next_id
            next_id += 1
            leaf_label[leaf] = m + 1
            children[B].append(leaf)
            parent_of[leaf] = B
            leaves.append(leaf)
            tokens.append(B)
    return Tree(children, leaf_label, root, None, parent_of)


def _split_block(labels, pi):
    """Push a partition of [len(labels)] onto the sorted label list."""
    return [[labels[i - 1] for i in b] for b in pi.blocks]


def _build_recursive(labels, split_fn, rng, edge_fn=None):
    """Tree of recursive splits of the sorted labels, node ids in pre-order.

    With edge_fn, every vertex draws its edge length edge_fn(block size)
    before its split, and the tree hangs below a degree-1 virtual root.
    """
    children = {}
    leaf_label = {}
    length = None if edge_fn is None else {}
    fresh = itertools.count().__next__

    def build(labs):
        v = fresh()
        if edge_fn is not None:
            length[v] = edge_fn(len(labs))
        if len(labs) == 1:
            leaf_label[v] = labs[0]
            return v
        pi = split_fn(len(labs), rng)
        children[v] = [build(b) for b in _split_block(labs, pi)]
        return v

    if edge_fn is None:
        return Tree(children, leaf_label, build(sorted(labels)))
    root = fresh()
    children[root] = [build(sorted(labels))]
    return Tree(children, leaf_label, root, length)


def table_sampler(table, rng):
    """One categorical draw from a SplittingRuleTable."""
    items = sorted(table.probs.items(), key=lambda kv: kv[0].to_text())
    ps = np.array([v for _, v in items])
    i = np.searchsorted(np.cumsum(ps), rng.random() * ps.sum())
    return items[min(i, len(items) - 1)][0]


def sample_markov_branching(rule_source, n, rng):
    """Recursive Markov branching tree from per-size splitting tables."""
    if n < 1:
        raise ArgumentError("n must be positive")
    return _build_recursive(range(1, n + 1),
                            lambda b, r: table_sampler(rule_source(b), r), rng)


def sample_fragmentation_tree(d, n, rng):
    """Markov branching tree of a DiscreteDislocation without enumerating tables."""
    if n < 1:
        raise ArgumentError("n must be positive")
    return _build_recursive(range(1, n + 1),
                            lambda b, r: sample_split(d, b, r), rng)


def delete_uniform_leaf(t, rng):
    if t.n < 2:
        raise ArgumentError("cannot delete from a single leaf")
    victim = int(rng.integers(1, t.n + 1))
    return delete_leaf(t, victim)


def delete_leaf(t, label):
    """Remove one leaf, suppress the arising degree-2 vertex, relabel in order."""
    children = {v: list(cs) for v, cs in t.children.items()}
    leaf_label = dict(t.leaf_label)
    parent_of = dict(t.parent_of)
    root = t.root
    u = t.leaf_node(label)
    del leaf_label[u]
    if u == root:
        raise ArgumentError("cannot delete the only leaf")
    p = parent_of[u]
    children[p].remove(u)
    del parent_of[u]
    if len(children[p]) == 1:
        only = children[p][0]
        del children[p]
        if p == root:
            root = only
            del parent_of[only]
        else:
            g = parent_of[p]
            children[g][children[g].index(p)] = only
            parent_of[only] = g
            del parent_of[p]
    for v in leaf_label:
        if leaf_label[v] > label:
            leaf_label[v] -= 1
    return Tree(children, leaf_label, root, None, parent_of)


def spine_depth(t, label):
    """Number of tree blocks containing the label; counts the added root edge."""
    u = t.leaf_node(label)
    parent_of = t.parent_of
    depth = 1
    while u != t.root:
        u = parent_of[u]
        depth += 1
    return depth


def leaf_depths(t):
    """label -> spine depth for every leaf, in one traversal."""
    depth = {t.root: 1}
    out = {}
    stack = [t.root]
    while stack:
        u = stack.pop()
        if u in t.leaf_label:
            out[t.leaf_label[u]] = depth[u]
        else:
            for c in t.children[u]:
                depth[c] = depth[u] + 1
                stack.append(c)
    return out


def tree_height(t):
    return max(leaf_depths(t).values())


def mean_depth(t):
    return float(np.mean(list(leaf_depths(t).values())))


def reduced_tree(t, labels):
    """Subtree spanning the root and the given leaves, degree-2 vertices suppressed.

    Edge lengths count the suppressed unit edges plus one; the root edge added
    by delabelling is included, so a single selected leaf gives one path of
    total length spine_depth.
    """
    labels = sorted(set(labels))
    if not labels:
        raise ArgumentError("need at least one label")
    targets = {t.leaf_node(lab): lab for lab in labels}
    parent_of, root = t.parent_of, t.root
    in_union = set(targets)
    for u in targets:
        v = u
        while v != root:
            v = parent_of[v]
            in_union.add(v)
    kids_in = {v: [c for c in t.children.get(v, []) if c in in_union]
               for v in in_union}
    retained = {v for v in in_union if len(kids_in[v]) >= 2} | set(targets)
    children = {0: []}
    length = {}
    leaf_label = {}
    ids = {}
    order = [v for v in t._postorder() if v in retained][::-1]  # root side first
    for vid, v in enumerate(order, 1):
        ids[v] = vid
        if v in targets:
            leaf_label[vid] = targets[v]
        else:
            children[vid] = []
        # walk up to the nearest retained ancestor (or the virtual root)
        steps = 1
        u = v
        while u != root:
            u = parent_of[u]
            if u in retained:
                children[ids[u]].append(vid)
                break
            steps += 1
        else:
            children[0].append(vid)
        length[vid] = float(steps)
    rt = Tree(children, leaf_label, 0, length)
    rt.validate()
    return rt


def special_branch_count(t, j, m):
    """Vertices on the root-to-j path whose m least labels escape j's child."""
    if m < 1:
        raise ArgumentError("m must be positive")
    u = t.leaf_node(j)
    parent_of = t.parent_of
    path = [u]
    while path[-1] != t.root:
        path.append(parent_of[path[-1]])
    count = 0
    below = u
    for v in path[1:]:
        labs = t.labels_under(v)
        child_labs = set(t.labels_under(below))
        if any(x not in child_labs for x in labs[:m]):
            count += 1
        below = v
    return count
