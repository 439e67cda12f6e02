"""Shared test setup.

Child processes started by the tests import the same sylowbranch as the
tests: pytest's `pythonpath` setting reaches only its own process, so the
directory the package was imported from is put in front of PYTHONPATH for
the CLI subprocesses as well.
"""

import os
from collections import Counter

import pytest

import sylowbranch
from sylowbranch import characters, engine

_root = os.path.dirname(os.path.dirname(os.path.abspath(sylowbranch.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_root, os.environ.get("PYTHONPATH")) if path
)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty engine memos for one test, and a Counter of split_pairs calls by (|la|, m).

    The memos are _full_memo, _lin_memo and _lin_sylow_memo; the split_pairs
    cache is left as it is, since a call is counted whether it hits or not.
    """
    for memo in ("_full_memo", "_lin_memo", "_lin_sylow_memo"):
        monkeypatch.setattr(engine, memo, {})
    calls = Counter()
    real = characters.split_pairs

    def counted(la, m, *args):
        calls[sum(la), m] += 1
        return real(la, m, *args)

    monkeypatch.setattr(characters, "split_pairs", counted)
    return calls
