"""Tree samplers and tree statistics.

GrownTree holds a labelled leaf hierarchy in parent/children form; the
set-of-subsets view demanded by the hierarchy formalism is derived lazily
so that sequential growth stays O(1) amortized per insertion.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .dislocation import sample_split
from .partitions import Hierarchy

_FMT = repr  # shortest round-trip decimal for golden files


def _labels_below(children, leaf_label, v):
    """Sorted leaf labels of the subtree at v; children lists internal nodes."""
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        if u in leaf_label:
            out.append(leaf_label[u])
        else:
            stack.extend(children.get(u, ()))
    return sorted(out)


@dataclass
class GrownTree:
    """Rooted labelled tree: leaves carry labels 1..n, internal nodes >= 2 children."""

    children: dict          # node id -> list of child ids (internal nodes only)
    leaf_label: dict        # node id -> leaf label
    root: int
    parent_of: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.parent_of:
            self.parent_of = {c: v for v, cs in self.children.items() for c in cs}

    @property
    def n(self):
        return len(self.leaf_label)

    @staticmethod
    def single_leaf():
        return GrownTree({}, {0: 1}, 0)

    def labels_under(self, v):
        """Sorted leaf labels below v (inclusive)."""
        return _labels_below(self.children, self.leaf_label, v)

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
        return {sets[u]: sets[self.parent_of[u]] for u in sets if u != self.root}

    def _postorder(self):
        order, stack = [], [self.root]
        while stack:
            u = stack.pop()
            order.append(u)
            if u in self.children:
                stack.extend(self.children[u])
        order.reverse()
        return order

    def to_hierarchy(self):
        return Hierarchy.from_sets(self.n, self.vertices)

    def validate(self):
        for v, cs in self.children.items():
            if len(cs) < 2:
                raise ArgumentError("internal vertex with fewer than 2 children")
        labels = sorted(self.leaf_label.values())
        if labels != list(range(1, self.n + 1)):
            raise ArgumentError("leaf labels must be 1..n")
        self.to_hierarchy()

    def leaf_node(self, label):
        for u, lab in self.leaf_label.items():
            if lab == label:
                return u
        raise ArgumentError(f"no leaf labelled {label}")

    def _node_text(self, u):
        if u in self.leaf_label:
            return str(self.leaf_label[u])
        kids = sorted(self.children[u], key=lambda c: self.labels_under(c)[0])
        return "(" + ",".join(self._node_text(c) for c in kids) + ")"

    def to_text(self):
        """Parenthesized labelled form, children ordered by least label."""
        return self._node_text(self.root)

    def _shape(self, u):
        if u in self.leaf_label:
            return "*"
        return "(" + ",".join(sorted(self._shape(c) for c in self.children[u])) + ")"

    def shape_text(self):
        """Canonical delabelled form (children sorted lexicographically)."""
        return self._shape(self.root)


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
    return GrownTree(children, leaf_label, root, parent_of)


def _split_block(labels, pi):
    """Push a partition of [len(labels)] onto the sorted label list."""
    return [[labels[i - 1] for i in b] for b in pi.blocks]


def _build_recursive(labels, split_fn, rng):
    children = {}
    leaf_label = {}
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0] - 1

    def build(labs):
        v = fresh()
        if len(labs) == 1:
            leaf_label[v] = labs[0]
            return v
        pi = split_fn(len(labs), rng)
        children[v] = [build(b) for b in _split_block(labs, pi)]
        return v

    root = build(sorted(labels))
    return GrownTree(children, leaf_label, root)


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
    return GrownTree(children, leaf_label, root, parent_of)


def spine_depth(t, label):
    """Number of tree blocks containing the label; counts the added root edge."""
    u = t.leaf_node(label)
    depth = 1
    while u != t.root:
        u = t.parent_of[u]
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


@dataclass
class MetricTree:
    """Rooted tree with edge lengths; vertex 0 is the root."""

    children: dict          # node -> list of children
    length: dict            # node -> length of the edge to its parent
    leaf_labels: dict       # node -> integer label (leaves only)
    root: int = 0

    @property
    def parent(self):
        return {c: v for v, cs in self.children.items() for c in cs}

    def depth(self, v):
        par = self.parent
        d = 0.0
        while v != self.root:
            d += self.length[v]
            v = par[v]
        return d

    def leaves(self):
        return sorted(self.leaf_labels, key=lambda v: self.leaf_labels[v])

    def labels_under(self, v):
        """Sorted leaf labels below v (inclusive)."""
        return _labels_below(self.children, self.leaf_labels, v)

    def validate(self):
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
        return MetricTree(self.children, {v: l * factor for v, l in self.length.items()},
                          self.leaf_labels, self.root)

    def _min_label(self, v):
        if v in self.leaf_labels:
            return self.leaf_labels[v]
        return min(self._min_label(c) for c in self.children[v])

    def _node_text(self, v, labelled=True):
        if v in self.leaf_labels:
            head = str(self.leaf_labels[v]) if labelled else "*"
        else:
            kids = sorted(self.children[v], key=self._min_label)
            texts = [self._node_text(c, labelled) for c in kids]
            head = "(" + ",".join(sorted(texts) if not labelled else texts) + ")"
        if v == self.root:
            return head
        return head + ":" + _FMT(self.length[v])

    def to_text(self):
        """Parenthesized form with :length suffixes on every non-root vertex."""
        return self._node_text(self.root)

    def shape_text(self):
        """Delabelled combinatorial shape, lengths dropped; the degree-1
        virtual root is not displayed."""
        def sh(v):
            if v in self.leaf_labels:
                return "*"
            return "(" + ",".join(sorted(sh(c) for c in self.children[v])) + ")"
        top = self.root
        while top not in self.leaf_labels and len(self.children[top]) == 1:
            top = self.children[top][0]
        return sh(top)


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
    in_union = set(targets)
    for u in targets:
        v = u
        while v != t.root:
            v = t.parent_of[v]
            in_union.add(v)
    kids_in = {v: [c for c in t.children.get(v, []) if c in in_union]
               for v in in_union}
    retained = {v for v in in_union if len(kids_in[v]) >= 2} | set(targets)
    children = {0: []}
    length = {}
    leaf_labels = {}
    ids = {}
    next_id = [1]

    def new_id(v):
        ids[v] = next_id[0]
        next_id[0] += 1
        return ids[v]

    order = [v for v in t._postorder() if v in retained][::-1]  # root side first
    for v in order:
        vid = new_id(v)
        if v in targets:
            leaf_labels[vid] = targets[v]
        # walk up to the nearest retained ancestor (or the virtual root)
        steps = 1
        u = v
        while u != t.root:
            u = t.parent_of[u]
            if u in retained:
                children[ids[u]].append(vid)
                length[vid] = float(steps)
                break
            steps += 1
        else:
            children[0].append(vid)
            length[vid] = float(steps)
        if v not in targets or v in t.children:
            children.setdefault(vid, [])
    mt = MetricTree({v: cs for v, cs in children.items() if cs or v == 0},
                    length, leaf_labels, 0)
    mt.validate()
    return mt


def special_branch_count(t, j, m):
    """Vertices on the root-to-j path whose m least labels escape j's child."""
    if m < 1:
        raise ArgumentError("m must be positive")
    u = t.leaf_node(j)
    path = [u]
    while path[-1] != t.root:
        path.append(t.parent_of[path[-1]])
    count = 0
    below = u
    for v in path[1:]:
        labs = t.labels_under(v)
        child_labs = set(t.labels_under(below))
        if any(x not in child_labs for x in labs[:m]):
            count += 1
        below = v
    return count
