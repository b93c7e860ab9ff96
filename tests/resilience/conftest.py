"""Shared invariant for the resilience suite: no leaked resources.

Every test — including the ones that crash workers, hang them past the
deadline, or fail export writes on purpose — must leave zero
exported segment files, zero dangling segment memmaps and zero torn temp files
behind after teardown.  The check itself lives in ``tests/leakcheck.py``
and is shared with the storage suite.
"""

import pytest

from leakcheck import assert_no_leaked_resources


@pytest.fixture(autouse=True)
def _no_leaked_resources():
    yield
    assert_no_leaked_resources()
