"""Tree samplers and tree statistics on the one tree type, Tree."""

import functools
import itertools
import math
import numbers

import numpy as np

from .errors import ArgumentError, _check_count, _is_integer_type
from .dislocation import _check_alphagamma_params, _split_law
from .partitions import Hierarchy, Partition, _lazy

_FMT = repr  # shortest round-trip decimal for golden files


class Tree:
    """Rooted tree with labelled leaves: a hierarchy on [n], or the same
    hierarchy embedded in a continuum tree.

    Without `length` every edge has length 1 and every internal vertex has
    >= 2 children (grown and branching trees).  With `length` (node -> length
    of the edge to its parent) the tree is a reduced tree or a CRT sample,
    hung below a degree-1 virtual root.  Node ids are keys and nothing more;
    orders are read off the leaf labels.  The set-of-subsets view demanded
    by the hierarchy formalism is derived lazily, so that sequential growth
    stays O(1) amortized per insertion.

    `parent_of` and `node_of` are built on first use.  Root climbs read
    three node views, which build no dict where a tree has lists to serve
    them (_GrownTree): `_up` (node -> parent), `leaf_node` (label -> node,
    the one check of a label) and `_slot_of` (node -> its index in its
    parent's child list).
    """

    __hash__ = None     # compared by value, and mutable

    def __init__(self, children, leaf_label, root, length=None, parent_of=None):
        self.children = children        # node id -> list of child ids (internal nodes only)
        self.leaf_label = leaf_label    # node id -> leaf label
        self.root = root
        self.length = length            # node id -> edge length; None: unit edges
        if parent_of is not None:
            self.parent_of = parent_of

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return (self.children, self.leaf_label, self.root, self.length) == \
            (other.children, other.leaf_label, other.root, other.length)

    def __repr__(self):
        return (f"Tree(children={self.children!r}, leaf_label={self.leaf_label!r}, "
                f"root={self.root!r}, length={self.length!r})")

    @_lazy
    def parent_of(self):
        """node id -> parent id, built on first use."""
        return {c: v for v, cs in self.children.items() for c in cs}

    @_lazy
    def node_of(self):
        """leaf label -> node id, built on first use."""
        return {lab: u for u, lab in self.leaf_label.items()}

    @_lazy
    def _up(self):
        """The parent view: node id -> parent id."""
        return self.parent_of

    @_lazy
    def _slot_of(self):
        """The slot view: a function from a node but the root to its index
        in its parent's child list, looked up in that list."""
        children, up = self.children, self._up
        return lambda u: children[up[u]].index(u)

    def leaf_node(self, label):
        """The node view, leaf label -> node id, and the one check of a
        label: an integer (errors._is_integer_type, so no bool and no 1.0)
        that labels a leaf of this tree, else ArgumentError."""
        if type(label) is int or _is_integer_type(type(label)):
            node = self.node_of.get(label)
            if node is not None:
                return node
        raise ArgumentError(f"no leaf labelled {label!r}")

    def path_to_root(self, u):
        """[u, parent of u, ..., root]."""
        up, root = self._up, self.root
        path = [u]
        while u != root:
            u = up[u]
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
        """One walk from the root, which must reach no vertex twice, so the
        label sets below the vertices are laminar, and must reach every
        vertex, each a leaf or an internal vertex but not both.  Unit edges:
        internal vertices have >= 2 children and the leaves carry 1..n.
        With lengths: internal vertices have >= 1 child, the leaf labels are
        distinct, every vertex but the root has a length, no other key does,
        and every length is finite and non-negative (so not NaN).  The walk
        appends each child list to the list it iterates, and the checks are
        set operations on the result."""
        children, leaf_label, length = self.children, self.leaf_label, self.length
        size = len(children) + len(leaf_label)
        order = [self.root]
        for v in order:
            cs = children.get(v)
            if cs:
                order += cs
                if len(order) > size:   # a cycle would grow it forever
                    raise ArgumentError("a vertex reached twice, or one that is neither "
                                        "a leaf nor an internal vertex: not a tree")
        seen = set(order)
        if len(seen) != len(order):
            raise ArgumentError("vertex reached twice: not a tree")
        if len(seen) != size or seen != children.keys() | leaf_label.keys():
            raise ArgumentError("every vertex must be reached from the root and "
                                "be a leaf or an internal vertex, not both")
        if length is None:
            if any(len(cs) < 2 for cs in children.values()):
                raise ArgumentError("internal vertex with fewer than 2 children")
            if sorted(leaf_label.values()) != list(range(1, self.n + 1)):
                raise ArgumentError("leaf labels must be 1..n")
            return
        if not all(children.values()):
            raise ArgumentError("internal vertex with no children")
        if len(set(leaf_label.values())) != len(leaf_label):
            raise ArgumentError("leaf labels must be distinct")
        seen.discard(self.root)
        if length.keys() != seen:
            raise ArgumentError("every vertex but the root, and no other, needs "
                                "an edge length")
        if not all(0 <= l < math.inf for l in length.values()):
            raise ArgumentError("edge lengths must be finite and non-negative")

    def scaled(self, factor):
        """The same tree with every edge length multiplied by factor, a
        finite real > 0 (not a bool)."""
        if self.length is None:
            raise ArgumentError("only a tree with edge lengths can be scaled")
        real = type(factor) is float or (isinstance(factor, numbers.Real)
                                         and not isinstance(factor, bool))
        if not (real and 0 < factor < math.inf):
            raise ArgumentError(f"scale factor must be a finite real > 0, got {factor!r}")
        return Tree(self.children, self.leaf_label, self.root,
                    {v: l * factor for v, l in self.length.items()})

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


class _GrownTree(Tree):
    """A unit-edge Tree that keeps the growth core's node-indexed lists
    (see _grow): node u hangs from parent[u] (-1 at the root) as child
    number slot[u] and has count[u] children, and leaves[m - 1] is leaf m.

    It reads as any Tree.  `children` and `leaf_label` are built together
    on first use by one routine (_read_lists), `parent_of` and `node_of`
    each on first use, and the node views are the lists themselves.  The
    lazy attributes live on this class and not on Tree, because a class
    attribute of the same name makes every read of `t.children` on every
    tree slower (Python 3.11 then does not specialize the lookup)."""

    def __init__(self, parent, slot, count, leaves, root):
        self.root, self.length = root, None
        self._lists, self._leaves, self._up = (parent, slot, count), leaves, parent

    def _read_lists(self):
        """(children, leaf_label) of the lists, children in slot order."""
        parent, slot, count = self._lists
        children = {}
        for u, p in enumerate(parent):
            if p >= 0:
                kids = children.get(p)
                if kids is None:
                    kids = children[p] = [0] * count[p]
                kids[slot[u]] = u
        return children, dict(zip(self._leaves, range(1, len(self._leaves) + 1)))

    @_lazy
    def children(self):
        children, self.leaf_label = self._read_lists()
        return children

    @_lazy
    def leaf_label(self):
        self.children, leaf_label = self._read_lists()
        return leaf_label

    @_lazy
    def parent_of(self):
        parent_of = dict(enumerate(self._up))
        del parent_of[self.root]
        return parent_of

    @_lazy
    def node_of(self):
        return dict(zip(range(1, len(self._leaves) + 1), self._leaves))

    @_lazy
    def _slot_of(self):
        return self._lists[1].__getitem__

    def leaf_node(self, label):
        if (type(label) is int or _is_integer_type(type(label))) \
                and 0 < label <= len(self._leaves):
            return self._leaves[label - 1]
        raise ArgumentError(f"no leaf labelled {label!r}")

    @property
    def n(self):
        return len(self._leaves)

# below this many leaves the fixed cost of _word_schedule (the generator
# state handling and the numpy calls of a round, about 30 us) is more than
# the scalar calls it replaces
_WORD_DRAWS_MIN_N = 16
# the most raw words the array replay holds at once (at least 3, one step)
_WORD_CHUNK = 2048
_LOW32 = 0xFFFFFFFF


def _call_schedule(alpha, n, rng):
    """The draws of growing n >= 2 leaves, as rng.random() and
    rng.integers(k) calls: (picks, coins) of steps 2..n-1.  Step m has m
    leaves and m - 1 tokens whatever the tree, so its draws never read the
    tree.  With weight m(1-a) on the leaves and a per token, step m draws a
    uniform and then a leaf index j, kept as j, or a token index i, kept as
    ~i, followed by the token's vertex-or-edge uniform, kept in coins.
    Step 1 has one leaf, so it draws only its uniform, and none when a = 1
    (total weight 0); integers(1) draws nothing, so it is not called."""
    random, integers = rng.random, rng.integers
    picks, coins = [], []
    if alpha < 1:
        random()
    for m in range(2, n):
        w_leaf = m * (1 - alpha)
        total = w_leaf + alpha * (m - 1)
        if random() * total < w_leaf:
            picks.append(int(integers(m)))
        else:
            picks.append(~int(integers(m - 1)) if m > 2 else -1)
            coins.append(random())
    return picks, coins


@functools.lru_cache(maxsize=8)
def _leaf_bounds(alpha, n):
    """The leaf tests of steps 2..n-1 of growing n leaves as bounds on the
    uniform, for a fit or a ladder grows many trees at one (alpha, n).

    Step m picks a leaf when u * total < w_leaf in floating point, with
    w_leaf = m(1-a) and total = m(1-a) + a(m-1) >= 1 (m - a up to rounding).
    The product is non-decreasing in u, so on the uniforms u = x 2**-53 of
    numpy's doubles the test is x < X_m, for X_m the least x (or 2**53) with
    x 2**-53 total >= w_leaf; X_m lies within 4 of w_leaf / total * 2**53.
    Returns the bounds X_m 2**-53 on u as a list: a leaf when u < bound."""
    ms = np.arange(2, n, dtype=float)
    w_leaf = ms * (1 - alpha)
    total = w_leaf + alpha * (ms - 1)
    x = np.clip(np.floor(w_leaf / total * 2.0 ** 53)[:, None] + np.arange(-4.0, 5.0),
                0.0, 2.0 ** 53)
    token = ~(x * 2.0 ** -53 * total[:, None] < w_leaf[:, None])
    # a token at x = 2**53 (u = 1), and a leaf below the window unless it starts at 0
    assert token[:, -1].all() and (~token[:, 0] | (x[:, 0] == 0)).all()
    bound = x[np.arange(len(x)), token.argmax(axis=1)]
    return (bound * 2.0 ** -53).tolist()


def _word_schedule(alpha, n, bg):
    """_call_schedule on a PCG64 bit generator, replayed bit for bit from
    raw 64-bit words.

    numpy makes a double of one word, (w >> 11) * 2**-53, and integers(k)
    with Lemire's 32-bit rejection method on next_uint32, which takes the
    low half of a fresh word and keeps the high half for its next call; the
    generator's own buffered half (has_uint32, uinteger) is served first.
    _replay_walk walks the leaf-or-token tests alone and decodes the other
    draws as arrays.  It stops short of a bounded draw that Lemire may
    reject (prod mod 2**32 < k, about once in 2**32 / k draws).  The
    generator is wound back over the words drawn but not used (advance by
    a negative count, which wraps modulo 2**128) and given the buffered
    half, so it stands where the calls would have left it; that step is
    made by the calls themselves and the replay starts again after it.  If
    the walk raises, the generator is put back at its start.
    """
    picks, coins = [], []
    # step 1 draws its uniform unless alpha = 1
    m, i = 2, int(alpha < 1)
    while m < n:
        start = bg.state
        try:
            m, k, unused, has_half, half = _replay_walk(alpha, n, bg, m, i,
                                                        bool(start["has_uint32"]),
                                                        start["uinteger"], picks, coins)
        except BaseException:
            bg.state = start
            raise
        bg.advance(-unused)
        # advance clears the half; uinteger keeps the last half even once used
        state = bg.state
        state["has_uint32"], state["uinteger"] = int(has_half), half
        bg.state = state
        if m < n:
            # step m has drawn its uniform; k = m at a leaf, m - 1 at a token
            rng = np.random.Generator(bg)
            j = int(rng.integers(k))
            if k == m:
                picks.append(j)
            else:
                picks.append(~j)
                coins.append(rng.random())
            m, i = m + 1, 0
    return picks, coins


def _replay_walk(alpha, n, bg, m, i, has_half, half, picks, coins):
    """Steps m..n-1 of _word_schedule in rounds of at most _WORD_CHUNK // 3
    steps, after the i words the replay skips, from the buffered half
    (has_half, half).  Appends to picks and coins and returns (m, k, words
    drawn but not used, has_half, half): m = n at the end, else the step
    whose bounded draw in [0, k) Lemire may reject, its uniform used.

    A round holds 3 words a step.  From step 3 on every step makes one
    bounded draw, which takes a fresh word and a buffered half in turn, so
    a step's words follow from its uniform's position, and only a token
    (whose coin comes next) moves the later ones.  A Python loop walks the
    uniforms, each tested against its bound from _leaf_bounds, and keeps
    the positions of the tokens' coins; numpy then gives every step's
    32-bit value, index and coin.  A token at step 2 draws no index (k = 1)
    and is taken before the walk.
    """
    bounds = _leaf_bounds(alpha, n)
    words = np.empty(0, np.uint64)
    while m < n:
        size = min(n - m, _WORD_CHUNK // 3)
        need = 3 * size + i - len(words)
        if need > 0:
            # the cursor may start past the words held (step 1's uniform)
            words, i = np.concatenate((words[i:], bg.random_raw(need))), max(i - len(words), 0)
            doubles = (words >> 11) * 2.0 ** -53
            uniforms = memoryview(doubles)
        if m == 2 and not uniforms[i] < bounds[0]:
            picks.append(-1)
            coins.append(uniforms[i + 1])
            i, m, size = i + 2, 3, size - 1
        # the walk: a step takes its uniform, a fresh word every other step
        # and, at a token, a coin, whose position it keeps
        h, p0, coin_at = int(has_half), i, []
        for s, bound in zip(itertools.cycle((1, 2) if h else (2, 1)), bounds[m - 2:m - 2 + size]):
            if uniforms[i] < bound:
                i += s
            else:
                i += s
                coin_at.append(i)
                i += 1
        # the decode.  Had no step drawn a coin, step s would draw its
        # uniform (3s + 1 - h) // 2 words after p0, and at a token its coin
        # (3s - h) // 2 + 2 words after p0; the j-th coin lies j words later
        coin_at = np.asarray(coin_at, np.intp)
        tsteps = (2 * (coin_at - np.arange(len(coin_at))) + (h - 3 - 2 * p0)) // 3
        token = np.zeros(size, bool)
        token[tsteps] = True
        # steps h, h + 2, ... take fresh words, 3 words apart but for coins;
        # in order, their low and high halves are the 32-bit values drawn
        fresh = (size + 1 - h) // 2
        fw = words[np.arange(p0 + h + 1, p0 + h + 1 + 3 * fresh, 3)
                   + np.searchsorted(tsteps, np.arange(h, size, 2))]
        u = fw.astype("<u8", copy=False).view("<u4")
        if h:
            u = np.concatenate(([np.uint32(half)], u))
        k = np.arange(m, m + size, dtype=np.uint64) - token
        prod = u[:size] * k
        # steps before d are done; Lemire may reject at step d
        maybe = prod & _LOW32 < k
        d = int(maybe.argmax()) if maybe.any() else size
        j = (prod >> 32).view(np.int64)
        picks += np.where(token, ~j, j)[:d].tolist()
        before = len(coin_at) if d == size else int(np.searchsorted(tsteps, d))
        coins += doubles[coin_at[:before]].tolist()
        # the state after the first d steps
        has_half, c = h != d & 1, (d + 1 - h) // 2
        if c:
            half = int(fw[c - 1] >> 32)
        if d < size:
            return (m + d, int(k[d]), len(words) - (p0 + (3 * d + 1 - h) // 2 + before + 1),
                    has_half, half)
        m += size
    return n, 0, len(words) - i, has_half, half


def _grow(alpha, gamma, n, rng):
    """The alpha-gamma growth core: the draw schedule, then the one structure
    loop on node-indexed lists.  Returns (parent, slot, count, leaves,
    root): node u hangs from parent[u] (-1 at the root) as its child number
    slot[u] and has count[u] children, and leaves[m - 1] is leaf m.

    Internal nodes are kept as a token list with node B repeated k_B - 1
    times, so total vertex weight is a * len(tokens) and an inner-edge versus
    vertex choice at B is a single accept step with probability
    g / ((k_B - 1) a).
    """
    _check_alphagamma_params(alpha, gamma)
    n = _check_count("n", n, 1)
    if n == 1:
        return [-1], [0], [0], [0], 0
    if n >= _WORD_DRAWS_MIN_N and type(rng.bit_generator) is np.random.PCG64:
        picks, coins = _word_schedule(alpha, n, rng.bit_generator)
    else:
        picks, coins = _call_schedule(alpha, n, rng)
    # step 1 hangs vertex 1 above the only leaf (node 0), with leaf 2 (node
    # 2) as its other child
    parent, slot, count = [1, -1, 1], [0, 0, 1], [0, 2, 0]
    leaves, tokens = [0, 2], [1]
    root, c = 1, 0
    for pick in picks:
        if pick >= 0:
            v = leaves[pick]
        else:
            v = tokens[~pick]
            c += 1
            if coins[c - 1] >= gamma / ((count[v] - 1) * alpha):
                # vertex: the new leaf hangs from v
                leaves.append(len(parent))
                parent.append(v)
                slot.append(count[v])
                count.append(0)
                count[v] += 1
                tokens.append(v)
                continue
        # edge: a new vertex p above v, with the new leaf as its other child
        p = len(parent)
        g = parent[v]
        parent.append(g)
        parent.append(p)
        slot.append(slot[v])
        slot.append(1)
        count.append(2)
        count.append(0)
        parent[v], slot[v] = p, 0
        if g < 0:
            root = p
        leaves.append(p + 1)
        tokens.append(p)
    # what the schedule took for granted: each step adds one leaf and one token
    assert len(leaves) == n and len(tokens) == n - 1
    return parent, slot, count, leaves, root


def grow_alphagamma(alpha, gamma, n, rng):
    """Sequential growth: leaf edge weight 1-a, inner edge g, vertex (k-1)a - g.

    Leaf m is the m-th leaf grown, so the tree after m steps is the result
    restricted to [m] (reduced_ladder reads those trees off it).  The growth
    core (_grow) gives node-indexed lists, and the Tree keeps them: its
    dicts are built on first use, and its node views read the lists.

    Stream contract: the same draws as rng.random() and rng.integers(k), in
    the loop's order, and the same end state of rng.  On a PCG64 generator
    they are replayed from raw words drawn in chunks (_word_schedule); other
    bit generators, and trees under _WORD_DRAWS_MIN_N leaves, make those
    calls.
    """
    return _GrownTree(*_grow(alpha, gamma, n, rng))


def _alphagamma_leaf_depths(alpha, gamma, n, rng):
    """The spine depths of the leaves of grow_alphagamma(alpha, gamma, n,
    rng), in label order, read off the core's parent list by pointer
    jumping with no Tree: after round r every node knows its 2**r-th
    ancestor (or the root) and the number of edges up to it."""
    parent, _, _, leaves, root = _grow(alpha, gamma, n, rng)
    up = np.fromiter(parent, np.intp, len(parent))
    up[root] = root
    edges = np.ones(len(up), np.intp)
    edges[root] = 0
    while True:
        above = up[up]
        if (above == up).all():
            return edges[np.fromiter(leaves, np.intp, n)] + 1
        edges += edges[up]
        up = above


def _build_recursive(labels, split_fn, rng, edge_fn=None):
    """Tree of recursive splits of the sorted labels, node ids in pre-order.

    split_fn(labs, rng) gives the child label blocks of a block of sorted
    labels labs, in order of least label; every split is checked to have
    at least 2 blocks that together hold exactly labs.  With edge_fn, every
    vertex draws its edge length edge_fn(block size) before its split, and
    the tree hangs below a degree-1 virtual root.  The blocks wait on an
    explicit stack, first child on top, so any depth builds.
    """
    children = {}
    leaf_label = {}
    length = None if edge_fn is None else {}
    fresh = itertools.count().__next__
    kids = []       # the child list the next vertex joins
    if edge_fn is not None:
        children[fresh()] = kids
    stack = [(kids, tuple(sorted(labels)))]
    while stack:
        kids, labs = stack.pop()
        v = fresh()
        kids.append(v)
        if edge_fn is not None:
            length[v] = edge_fn(len(labs))
        if len(labs) == 1:
            leaf_label[v] = labs[0]
            continue
        blocks = split_fn(labs, rng)
        if len(blocks) < 2 or tuple(sorted(itertools.chain.from_iterable(blocks))) != labs:
            raise ArgumentError("a split must cut its labels into >= 2 blocks "
                                "that hold each of them once")
        children[v] = kids = []
        stack.extend(zip(itertools.repeat(kids), reversed(blocks)))
    return Tree(children, leaf_label, 0, length)


def sample_markov_branching(rule_source, n, rng):
    """Recursive Markov branching tree from per-size splitting tables;
    rule_source(b) is asked once per block size b in the tree."""
    n = _check_count("n", n, 1)
    draws = {}

    def split(labs, r):
        b = len(labs)
        if b not in draws:
            draws[b] = rule_source(b).draw
        return [tuple([labs[i - 1] for i in block]) for block in draws[b](r).blocks]
    return _build_recursive(range(1, n + 1), split, rng)


def sample_fragmentation_tree(d, n, rng):
    """Markov branching tree of a DiscreteDislocation without enumerating
    tables: every split draws from the model's one cached split law
    (dislocation._split_law), which reads the block size off the block's
    own labels and groups them."""
    n = _check_count("n", n, 1)
    return _build_recursive(range(1, n + 1), _split_law(d).split, rng)


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


def _path_joins(t, labels):
    """node -> label on the union of the labels' root paths, in the order
    the paths climb.  Each path, in the given order, climbs until it meets
    the earlier ones, and the node it meets records its label; a leaf
    records its own label, a node no path met None.  Over the labels 1, 2,
    ... a node so records the least n for which it is a vertex of T_n, the
    restriction of t to [n].  A label given again is passed over.  Reads
    the node views alone (leaf_node, _up), so it builds no dict of a grown
    tree."""
    up, root, joins = t._up, t.root, {}
    for lab in labels:
        v = t.leaf_node(lab)
        if v in joins:
            continue
        joins[v] = lab
        while v != root:
            v = up[v]
            if v in joins:
                if joins[v] is None:
                    joins[v] = lab
                break
            joins[v] = None
    return joins


def _reduced(t, labels):
    """reduced_tree(t, labels), and for each of its vertices the segment of
    t it stands for: the retained node, then the suppressed ancestors above
    it, so that the segment's length is the edge length.  The retained
    nodes are those _path_joins gives a label (the leaves and the nodes
    where their root paths meet, in any order of the labels), and in its
    climbing order a segment runs from one of them to the next; so this
    costs O(size of the union of the root paths) and never walks the rest
    of t.  The node above a segment's top is retained, unless the top is
    t's root, so a retained node's children are the segments whose tops
    hang from it, ordered by the slot view; one with none is a leaf, and
    its label is the one it records.  Reads the node views alone."""
    joins = _path_joins(t, labels)
    if not joins:
        raise ArgumentError("need at least one label")
    segment = {}        # retained node -> [it, the suppressed ancestors above it]
    for v, lab in joins.items():    # the first node is a leaf, so seg is bound
        if lab is None:
            seg.append(v)
        else:
            seg = segment[v] = [v]
    up, slot_of, root = t._up, t._slot_of, t.root
    below = {}          # retained node -> [(slot of a top below it, that top's node)]
    for v, seg in segment.items():
        s = seg[-1]
        if s == root:
            start = v
        else:
            kids = below.get(up[s])
            if kids is None:
                below[up[s]] = [(slot_of(s), v)]
            else:
                kids.append((slot_of(s), v))
    # ids follow t's pre-order with the last child first, as in _postorder;
    # 0 is the virtual root above t's root
    children, length, leaf_label, segments = {0: []}, {}, {}, {}
    stack = [(0, start)]
    while stack:
        pid, v = stack.pop()
        vid = len(segments) + 1
        children[pid].append(vid)
        seg = segments[vid] = segment[v]
        length[vid] = float(len(seg))
        kids = below.get(v)
        if kids is None:
            leaf_label[vid] = int(joins[v])
        else:
            children[vid] = []
            kids.sort()     # slots differ, so the nodes are never compared
            stack += [(vid, w) for _, w in kids]
    rt = Tree(children, leaf_label, 0, length)
    rt.validate()
    return rt, segments


def reduced_ladder(t, k, ns):
    """reduced_tree(T_n, 1..k) for every n in ns, all read off one tree t
    with unit edges, where T_n is t restricted to [n] (what delete_leaf
    leaves after removing the labels above n).  The reduced topology on [k]
    is the same for every n; _path_joins over 1..max(ns) gives each node the
    least n for which it is a vertex of T_n, so at size n an edge is as long
    as the number of labels <= n in its segment.  Costs one walk of
    T_max(ns) plus one searchsorted per (edge, n)."""
    if t.length is not None:
        raise ArgumentError("reduced_ladder reads a tree with unit edges")
    k = _check_count("k", k, 1)
    ns = [_check_count("n", n, k) for n in ns]
    if max(ns, default=k) > t.n:
        raise ArgumentError(f"need 1 <= k <= n <= {t.n} for every n")
    if not ns:
        return []
    rt, segments = _reduced(t, range(1, k + 1))
    joins = _path_joins(t, range(1, max(ns) + 1))
    marks = {v: np.sort([joins[u] for u in seg if joins[u] is not None])
             for v, seg in segments.items()}
    return [Tree(rt.children, rt.leaf_label, rt.root,
                 {v: float(np.searchsorted(m, n, side="right"))
                  for v, m in marks.items()})
            for n in ns]


def special_branch_count(t, j, m):
    """Vertices on the root-to-j path whose m least labels escape j's child.

    The m least labels of v escape its child `below` on the path exactly
    when they differ from the m least labels of `below`; one post-order pass
    keeps the m least labels of every vertex, so this costs O(n m)."""
    m = _check_count("m", m, 1)
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
