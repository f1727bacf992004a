"""Hypothesis runs derandomized and without deadlines, so every property test
draws the same examples on every run and every host.  The explain phase is
left out: in hypothesis 6.155.2 it can fail with an internal assertion on
properties that draw with st.data(), which hides the falsifying example."""

from hypothesis import Phase, settings

settings.register_profile("fragbox", derandomize=True, deadline=None,
                          phases=[ph for ph in Phase if ph != Phase.explain])
settings.load_profile("fragbox")
