"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from fragbox import DiscreteDislocation


@st.composite
def dislocations(draw, theorem2=False):
    """A DiscreteDislocation of 1..3 levels with 0..2 atoms each, and up to
    two c_j and two k_j constants.  With theorem2, a theorem-2 model: no
    c or k, and conservative atoms of 2..3 masses."""
    def atom():
        m = draw(st.integers(2 if theorem2 else 1, 3))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        dust = 0.0 if theorem2 else draw(st.floats(0.0 if m > 1 else 0.01, 1.0))
        total = sum(raw) + dust
        return tuple(sorted((x / total for x in raw), reverse=True))

    levels = {j: [(atom(), draw(st.floats(0.1, 1.1)))
                  for _ in range(draw(st.integers(0, 2)))]
              for j in range(1, draw(st.integers(1, 3)) + 1)}
    if not any(levels.values()):
        levels[1] = [((0.5, 0.5), 1.0)]
    if theorem2:
        return DiscreteDislocation.from_level_dict(levels, theorem2_mode=True)
    c = draw(st.lists(st.floats(0.0, 0.3), max_size=2))
    k = draw(st.lists(st.floats(0.0, 0.3), max_size=2))
    return DiscreteDislocation.from_level_dict(levels, c, k)


@st.composite
def capped_dislocations(draw):
    """A DiscreteDislocation with m_cap = 3 and two c_j and two k_j, so its
    split-law threshold max(m_cap, 2, len(c), len(k)) + 1 is 4: blocks of
    2 and 3 labels lie below it.  Atoms of 1..3 masses keep 1-10 % dust and
    the c_j outweigh the levels, so splits often peel a label or two and
    one tree meets many block sizes."""
    def atom():
        m = draw(st.integers(1, 3))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        keep = 1.0 - draw(st.floats(0.01, 0.1))
        return tuple(sorted((keep * x / sum(raw) for x in raw), reverse=True))

    levels = {j: [(atom(), draw(st.floats(0.1, 1.1)))
                  for _ in range(draw(st.integers(1 if j == 3 else 0, 2)))]
              for j in (1, 2, 3)}
    c = draw(st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2))
    k = draw(st.lists(st.floats(0.0, 0.05), min_size=2, max_size=2))
    return DiscreteDislocation.from_level_dict(levels, c, k)
