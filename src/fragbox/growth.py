"""Tree samplers and tree statistics on the one tree type, Tree."""

import itertools
import operator
from bisect import bisect_left
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
    _node_of: dict = field(default=None, repr=False, compare=False)

    @property
    def parent_of(self):
        """node id -> parent id, built on first use."""
        if self._parent_of is None:
            self._parent_of = {c: v for v, cs in self.children.items() for c in cs}
        return self._parent_of

    @property
    def node_of(self):
        """leaf label -> node id, built on first use."""
        if self._node_of is None:
            self._node_of = {lab: u for u, lab in self.leaf_label.items()}
        return self._node_of

    def path_to_root(self, u):
        """[u, parent of u, ..., root]."""
        parent_of, root = self.parent_of, self.root
        path = [u]
        while u != root:
            u = parent_of[u]
            path.append(u)
        return path

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
        leaf_label = self.leaf_label
        return sorted([leaf_label[u] for u in self._postorder(v) if u in leaf_label])

    def root_split(self):
        """Partition of [n] by the root's children (a virtual root skipped)."""
        top = self._top()
        if top in self.leaf_label:
            raise ArgumentError("a single leaf has no root split")
        return Partition.from_blocks(self.n, [self.labels_under(c)
                                              for c in self.children[top]])

    def _postorder(self, start=None):
        children = self.children
        order, stack = [], [self.root if start is None else start]
        while stack:
            u = stack.pop()
            order.append(u)
            if u in children:
                stack.extend(children[u])
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
        """The node carrying this leaf label."""
        try:
            return self.node_of[label]
        except KeyError:
            raise ArgumentError(f"no leaf labelled {label}") from None

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


class _WordDraws:
    """rng.random() and rng.integers(k), 1 <= k <= 2**32, replayed bit for
    bit from raw 64-bit PCG64 words drawn in bulk.

    numpy makes a double of one word, (w >> 11) * 2**-53, and integers(k)
    with Lemire's 32-bit rejection method on next_uint32, which takes the low
    half of a fresh word and keeps the high half for its next call; the
    generator's own buffered half (has_uint32, uinteger) is served first.
    close() puts the generator back at its start, advances it by the words
    consumed and restores the buffered half, so it ends where the scalar
    calls would have left it.
    """

    def __init__(self, rng, size):
        self._bg = rng.bit_generator
        self._start = self._bg.state
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]
        self._drawn = 0
        self._refill(size)

    def _refill(self, size):
        self._words = iter(self._bg.random_raw(size).tolist())
        self._next = self._words.__next__
        self._drawn += size

    def _word(self):
        """The next word, after the buffer runs out."""
        self._refill(self._drawn)
        return self._next()

    def random(self):
        try:
            w = self._next()
        except StopIteration:
            w = self._word()
        return (w >> 11) * 2.0 ** -53

    def below(self, k):
        if k == 1:
            return 0
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * k
        return m >> 32

    def _uint32(self):
        if self._has_half:
            self._has_half = False
            return self._half
        try:
            w = self._next()
        except StopIteration:
            w = self._word()
        self._has_half = True
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def close(self):
        bg = self._bg
        bg.state = self._start
        bg.advance(self._drawn - operator.length_hint(self._words))
        # advance clears the half; uinteger keeps the last half even once used
        state = bg.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bg.state = state


class _GeneratorDraws:
    """The same interface read straight off the Generator."""

    def __init__(self, rng):
        self.random = rng.random
        self.below = rng.integers

    def close(self):
        pass


# below this many leaves the ~17 us of state handling in _WordDraws costs
# more than the scalar calls it replaces
_WORD_DRAWS_MIN_N = 8


def _draws(rng, n):
    """A draw source for growing an n-leaf tree from rng."""
    if n >= _WORD_DRAWS_MIN_N and type(rng.bit_generator) is np.random.PCG64:
        return _WordDraws(rng, 2 * n)
    return _GeneratorDraws(rng)


def grow_alphagamma(alpha, gamma, n, rng):
    """Sequential growth: leaf edge weight 1-a, inner edge g, vertex (k-1)a - g.

    Internal nodes are kept as a token list with node B repeated k_B - 1 times,
    so total vertex weight is a * len(tokens) and an inner-edge versus vertex
    choice at B is a single accept step with probability g / ((k_B - 1) a).

    Stream contract: the same draws as rng.random() and rng.integers(k), in
    the loop's order, and the same end state of rng.  On a PCG64 generator
    they are replayed from raw words drawn in bulk (_WordDraws); other bit
    generators, and trees under _WORD_DRAWS_MIN_N leaves, make those calls.
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
    draws = _draws(rng, n)
    random, below = draws.random, draws.below
    try:
        for m in range(1, n):
            # selection weights: m(1-a) on leaf edges, a per token; they sum to m - a
            assert len(tokens) == m - 1
            w_leaf = m * (1 - alpha)
            w_tok = alpha * len(tokens)
            total = w_leaf + w_tok
            assert abs(total - (m - alpha)) < 1e-9
            if total <= 0 or random() * total < w_leaf:
                v = leaves[below(len(leaves))]
            else:
                v = tokens[below(len(tokens))]
                if random() >= gamma / ((len(children[v]) - 1) * alpha):
                    # vertex: the new leaf hangs from v
                    leaf_label[next_id] = m + 1
                    children[v].append(next_id)
                    parent_of[next_id] = v
                    leaves.append(next_id)
                    tokens.append(v)
                    next_id += 1
                    continue
            # edge: a new vertex p above v, with the new leaf as its other child
            p, leaf = next_id, next_id + 1
            next_id += 2
            children[p] = [v, leaf]
            leaf_label[leaf] = m + 1
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
    finally:
        draws.close()
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


def _table_draw(table):
    """draw(rng): one categorical draw from a SplittingRuleTable.

    The partitions are sorted by to_text and their cumulative sums taken
    once per table; a draw is one rng.random() and one bisection."""
    items = sorted(table.probs.items(), key=lambda kv: kv[0].to_text())
    parts = [p for p, _ in items]
    ps = np.array([v for _, v in items])
    cum, total, last = np.cumsum(ps).tolist(), float(ps.sum()), len(parts) - 1

    def draw(rng):
        return parts[min(bisect_left(cum, rng.random() * total), last)]
    return draw


def sample_markov_branching(rule_source, n, rng):
    """Recursive Markov branching tree from per-size splitting tables;
    rule_source(b) is asked once per block size b in the tree."""
    if n < 1:
        raise ArgumentError("n must be positive")
    draws = {}

    def split(b, r):
        if b not in draws:
            draws[b] = _table_draw(rule_source(b))
        return draws[b](r)
    return _build_recursive(range(1, n + 1), split, rng)


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
    return len(t.path_to_root(t.leaf_node(label)))


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
    """The greatest spine depth, max(leaf_depths(t).values()): the number of
    levels of a walk down from the root, one list per level."""
    children = t.children
    level, height = [t.root], 0
    while level:
        height += 1
        level = [c for u in level if u in children for c in children[u]]
    return height


def mean_depth(t):
    return float(np.mean(list(leaf_depths(t).values())))


def reduced_tree(t, labels):
    """Subtree spanning the root and the given leaves, degree-2 vertices suppressed.

    Edge lengths count the suppressed unit edges plus one; the root edge added
    by delabelling is included, so a single selected leaf gives one path of
    total length spine_depth.
    """
    return _reduced(t, labels)[0]


def _reduced(t, labels):
    """reduced_tree(t, labels), and for each of its vertices the segment of
    t it stands for: the retained node, then the suppressed ancestors above
    it, so that the segment's length is the edge length.

    Walks the root paths of the labels and then the reduced structure, never
    the rest of t, so it costs O(len(labels) * depth)."""
    labels = sorted(set(labels))
    if not labels:
        raise ArgumentError("need at least one label")
    paths = [t.path_to_root(t.leaf_node(lab)) for lab in labels]
    # a path meets the union of the earlier ones at a vertex that now has
    # two children in the union, so the vertices kept are the leaves and
    # these meeting points
    in_union = set()
    retained = set()
    for path in paths:
        retained.add(path[0])
        for v in path:
            if v in in_union:
                retained.add(v)
                break
            in_union.add(v)
    segment = {}        # retained node -> [it, the suppressed ancestors above it]
    below = {}          # retained node (None: t's root) -> those hung from it
    for path in paths:
        cuts = [i for i, v in enumerate(path) if v in retained] + [len(path)]
        for i, j in zip(cuts, cuts[1:]):
            if path[i] in segment:
                break
            segment[path[i]] = path[i:j]
            below.setdefault(path[j] if j < len(path) else None, []).append(path[i])
    # ids follow t's pre-order with the last child first, as in _postorder
    children = {0: []}  # 0 is the virtual root above t's root
    length = {}
    leaf_label = {}
    segments = {}
    stack = [(0, below[None][0])]
    while stack:
        pid, v = stack.pop()
        vid = len(segments) + 1
        children[pid].append(vid)
        segments[vid] = segment[v]
        length[vid] = float(len(segment[v]))
        if v in t.leaf_label:
            leaf_label[vid] = t.leaf_label[v]
        else:
            children[vid] = []
            rank = t.children[v].index
            hung = sorted(below[v], key=lambda w: rank(segment[w][-1]))
            stack.extend((vid, w) for w in hung)
    rt = Tree(children, leaf_label, 0, length)
    rt.validate()
    return rt, segments


def reduced_ladder(t, k, ns):
    """reduced_tree(T_n, 1..k) for every n in ns, all read off t = T_N, one
    tree grown by grow_alphagamma (k <= n <= N).

    grow_alphagamma hands out node ids in birth order and growth only
    subdivides edges or adds leaves, so T_n is the subtree of the T_N nodes
    whose id is at most that of leaf n (the tree delete_leaf leaves after
    removing leaves N, ..., n+1).  The reduced topology on [k] is therefore
    the same for every n, and at size n an edge is as long as the number of
    T_n nodes in its T_N segment.  Costs one reduced tree of t plus one
    searchsorted per (edge, n).
    """
    ns = list(ns)
    if k < 1 or any(not k <= n <= t.n for n in ns):
        raise ArgumentError(f"need 1 <= k <= n <= {t.n} for every n")
    rt, segments = _reduced(t, range(1, k + 1))
    sorted_ids = {v: np.sort(seg) for v, seg in segments.items()}
    node_of = t.node_of
    return [Tree(rt.children, rt.leaf_label, rt.root,
                 {v: float(np.searchsorted(ids, node_of[n], side="right"))
                  for v, ids in sorted_ids.items()})
            for n in ns]


def special_branch_count(t, j, m):
    """Vertices on the root-to-j path whose m least labels escape j's child.

    The m least labels of v escape its child `below` on the path exactly
    when they differ from the m least labels of `below`; one post-order pass
    keeps the m least labels of every vertex, so this costs O(n m)."""
    if m < 1:
        raise ArgumentError("m must be positive")
    path = t.path_to_root(t.leaf_node(j))
    leaf_label, children = t.leaf_label, t.children
    least = {}
    for u in t._postorder():
        if u in leaf_label:
            least[u] = [leaf_label[u]]
        else:
            labs = []
            for c in children[u]:
                labs += least[c]
            labs.sort()
            least[u] = labs[:m]
    return sum(least[v] != least[below] for below, v in zip(path, path[1:]))
