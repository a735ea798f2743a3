"""Settings shared by the whole test suite."""

from hypothesis import settings

# Every property test draws the same examples on every run (seeded from the
# test itself), so two runs of one commit check the same cases; none is
# failed for being slow.  Each test sets only its own max_examples.
settings.register_profile("radcal", derandomize=True, deadline=None)
settings.load_profile("radcal")
