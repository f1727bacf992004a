"""Hypothesis runs derandomized and without deadlines.  Derandomized does
not mean that a property test draws the same examples on every run: in
hypothesis 6.155.2 the examples also depend on the literal constants of every
local module loaded so far (`providers._get_local_constants` mixes them into
what it draws), so which examples a test gets depends on which src, bench and
test modules a run has imported, and a new constant in any of them shifts
them.  A case that a test must reach gets its own explicit test.  The explain
phase is left out: in hypothesis 6.155.2 it can fail with an internal
assertion on properties that draw with st.data(), which hides the falsifying
example."""

from hypothesis import Phase, settings

settings.register_profile("fragbox", derandomize=True, deadline=None,
                          phases=[ph for ph in Phase if ph != Phase.explain])
settings.load_profile("fragbox")
