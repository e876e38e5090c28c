"""The behaviour oracle: fixed-seed digests equal their pinned values.

``benchmarks.perf.digest`` hashes three full fixed-seed runs (Figure 8 under
WASP and under the Degrade baseline, and a chaos run) and fingerprints raw
ticks of the 16-site all-to-all shuffle.  The chaos run is pinned again
traced: its JSONL trace bytes, ``attempt_log`` and ``history``.  Two more
pins hold the dense backend to its own earlier output: raw ticks of the
64-site shuffle and an adapting Figure 8 run.  Engine and control-plane
changes must leave all seven bit-identical; the pins are CPython 3.11 values
(see the module docstring).
"""

from __future__ import annotations

import sys

import pytest

from benchmarks.perf import digest

pinned = pytest.mark.skipif(
    sys.version_info[:2] not in digest.PINNED,
    reason="digests are pinned for CPython 3.11",
)


@pinned
@pytest.mark.parametrize("name", sorted(digest.DIGESTS))
def test_digest_matches_pinned_value(name: str) -> None:
    expected = digest.PINNED[sys.version_info[:2]][name]
    assert digest.DIGESTS[name]() == expected


def test_check_mode_fails_on_mismatch(monkeypatch, capsys) -> None:
    version = sys.version_info[:2]
    monkeypatch.setattr(digest, "DIGESTS", {"fig8": lambda: "abc"})
    monkeypatch.setattr(digest, "PINNED", {version: {"fig8": "abc"}})
    assert digest.main(["--check"]) == 0
    monkeypatch.setattr(digest, "PINNED", {version: {"fig8": "abd"}})
    assert digest.main(["--check"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_check_mode_refuses_unpinned_interpreters(monkeypatch) -> None:
    monkeypatch.setattr(digest, "DIGESTS", {"fig8": lambda: "abc"})
    monkeypatch.setattr(digest, "PINNED", {})
    assert digest.main(["--check"]) == 2
    assert digest.main([]) == 0  # printing alone never fails
