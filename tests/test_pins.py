"""Every entry of the pin registry, ``pins.json``, recomputed through
``repin.check``; an acceptance gate checks the entries it computes itself."""

import hashlib
import importlib.util
import inspect
import os
import sys

import pytest

import repin
from hurewicz_kit import verifier

PINS = repin.load()


@pytest.mark.parametrize("name", [k for k, e in PINS.items() if "gate" not in e])
def test_pin(name):
    assert repin.check(name, PINS) == ""


def test_repin_names_each_changed_key_and_its_count_deltas(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(repin, "PINS", str(tmp_path / "pins.json"))
    wrong = {"sha256": "0" * 64, "counts": {"generated-samples-admissible": [0, 1, 0]}}
    repin.dump({"cascade trials=1": {"suite": "cascade", "params": {"trials": 1}, **wrong}})
    assert repin.main([]) == 1
    name, sha, counts, *_ = capsys.readouterr().out.splitlines()
    assert name == "cascade trials=1" and sha.startswith(f"  sha256 {'0' * 64} -> ")
    assert counts == "  generated-samples-admissible: passed +1, failed -1"
    assert repin.main(["--write"]) == 1
    assert repin.main([]) == 0
    assert capsys.readouterr().out.endswith("1 of 1 pins changed\n0 of 1 pins changed\n")


def _key(suite: str, params: dict) -> str:
    """The registry key of a suite call: its non-default parameters in
    signature order, or the CLI call ``verify <suite>`` when it has none."""
    given = {}
    for k, p in inspect.signature(verifier.SUITES[suite]).parameters.items():
        v = params.get(k, p.default)
        v = tuple(v) if isinstance(v, list) else v
        if v != p.default:
            given[k] = list(v) if isinstance(v, tuple) else v
    if not given:
        return repin.key({"argv": ["verify", suite]})
    return repin.key({"suite": suite, "params": given})


def test_suite_keys_name_each_call_once():
    for name, entry in PINS.items():
        if "suite" in entry:
            assert _key(entry["suite"], entry["params"]) == name


def test_every_suite_is_pinned_at_its_cli_defaults():
    for suite in verifier.SUITES:
        seed = ["--seed", "0"] if suite == "mutation" else []
        assert repin.key({"argv": ["verify", suite, *seed]}) in PINS, suite


def test_registry_matches_the_benchmark_gate(monkeypatch):
    # perfbench/golden/hashes.json pins the benchmark's calls on its own
    path = os.path.join(os.path.dirname(repin.PINS), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its @dataclass
    spec.loader.exec_module(bench)
    golden = bench.recorded_hashes()
    for workload in ("departure", "index-maps", "relation-forest"):
        w = bench.WORKLOADS[workload]
        name = _key(w.suite, w.params(bench.DEFAULT_SEED))
        assert PINS[name]["sha256"] == golden[workload][str(bench.DEFAULT_SEED)], name


# The first eight hex digits of the 46 distinct pins that test_cli,
# test_verifier and test_acceptance held when the registry replaced their
# tables, and the SHA-256 of those full pins, sorted and joined by spaces
_MOVED = """
    9947efe0 a913fdc4 16c3b8aa 24ad154e 6711ec77 da910c11 a37cca43 77b82f59
    fa8a3502 6ad2afa3 5510a714 3d708506 c6763795 0d4611bd 76efe229 ba5e25a6
    56bce48c 63df572e 5ba7146b ab0d1e2b 66ec8127 ad2c03c3 dff2edd3 c294bbc5
    57c95385 f0d51ed3 f1535776 07dea3db 6ab8f06e 45194ab4 f0118751 8438179f
    81b85fcc f9b2811d a4fe9f47 6c1e39b8 3c7b2757 7344acf0 0027b5cf 8eb81004
    05d6db6f 3b00fe13 86739765 3abcf74a 117baa89 333781dc
""".split()
_MOVED_SHA256 = "1a92aab9eaf476d5fba63e39427425d52cf4c3bff5f5ef59ecf9a592811d00d7"


def test_registry_holds_every_moved_pin_unchanged():
    assert len(set(_MOVED)) == 46
    moved = sorted(e["sha256"] for e in PINS.values() if e["sha256"][:8] in _MOVED)
    assert sorted(h[:8] for h in moved) == sorted(_MOVED)
    assert hashlib.sha256(" ".join(moved).encode()).hexdigest() == _MOVED_SHA256
