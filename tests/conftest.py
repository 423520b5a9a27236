from collections import Counter

import pytest

from tcn_anticipation.branch import Branch


@pytest.fixture
def branch_forwards(monkeypatch) -> Counter:
    """Counts ``Branch.forward`` calls per branch instance, keyed by ``id(branch)``."""
    calls: Counter = Counter()
    forward = Branch.forward

    def counting(self, *args, **kwargs):
        calls[id(self)] += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Branch, "forward", counting)
    return calls
