"""Settings shared by the whole test suite."""

import pytest
from hypothesis import settings

# Every property test draws the same examples on every run (seeded from the
# test itself), so two runs of one commit check the same cases; none is
# failed for being slow.  Each test sets only its own max_examples.
settings.register_profile("radcal", derandomize=True, deadline=None)
settings.load_profile("radcal")


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """A test's ``tmp_path`` holds no staged ``*.tmp`` file when it ends."""
    yield
    tmp_path = request.node.funcargs.get("tmp_path")
    if tmp_path is not None:
        assert sorted(tmp_path.rglob("*.tmp")) == []
