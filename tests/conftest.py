"""Every test starts with empty prover memos, so test order cannot change a
result and a test that patches search internals really runs the search."""

import pytest

from proofmgr import prover


@pytest.fixture(autouse=True)
def empty_prover_memos():
    prover.reset()
