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
