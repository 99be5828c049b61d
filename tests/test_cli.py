import functools
import inspect
import json
import os
import subprocess
import sys
import time

import pytest

from hurewicz_kit import cascade, cli, verifier
from hurewicz_kit import good_sequence as good

import repin

PINS = repin.load()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alphabets_text(capsys):
    code, out, _ = run(capsys, "alphabets", "--depth", "2")
    assert code == 0
    assert "36" in out and "288" in out and "A_1" in out


def test_alphabets_empty(capsys):
    code, out, _ = run(capsys, "alphabets", "--depth", "0")
    assert code == 0 and out == ""


def test_alphabets_capacity(capsys):
    code, _, err = run(capsys, "alphabets", "--depth", "99")
    assert code == 2 and "capacity" in err


def test_alphabets_json(capsys):
    code, out, _ = run(capsys, "alphabets", "--depth", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hurewicz-kit/1"
    assert [lvl["size"] for lvl in doc["levels"]] == [2, 3, 7]


# keys that test_verifier or gate 6 also check; repin.check computes each once
@pytest.mark.parametrize("suite", ["no-isolated", "arrival-scan"])
def test_verify_cli_defaults_match_recorded_hashes(suite):
    assert repin.check(f"hurewicz-kit verify {suite}", PINS) == ""


@pytest.mark.parametrize("argv", [("verify", "good-suite")])
def test_good_path_outputs_match_recorded_hashes(argv):
    assert repin.check(repin.key({"argv": list(argv)}), PINS) == ""


def test_nodes(capsys):
    code, out, _ = run(capsys, "nodes", "--length", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 42
    code, out, _ = run(capsys, "nodes", "--length", "2")
    assert code == 0
    assert out.splitlines() == [
        "6 nodes of depth 2", "(1,1)", "(1,36)", "(1,288)", "(4,1)", "(4,36)", "(4,288)"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("nodes", "--length", "5"),
        ("relations", "--length", "5", "--format", "json"),
        ("chain", "1,1,1,1,1", "4,1,1,1,1", "--length", "5"),
    ],
)
def test_depth_five_node_lists_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("capacity error: depth 5 has 3263442 nodes")
    assert "node-count cap 100000" in err


@pytest.mark.parametrize(
    "argv, stray",
    [
        (("constraints", "--t", "1", "--point", "1"), "--point"),
        (("constraints", "--t", "1", "--tail"), "--tail"),
        (("find", "--point", "1,1,4", "--tail", "--t", "1"), "--t"),
    ],
)
def test_branch_refuses_flag_the_action_ignores(capsys, argv, stray):
    code, out, err = run(capsys, "branch", *argv, "--s", "")
    assert code == 2 and out == ""
    assert f"branch {argv[0]} does not take {stray}" in err


def test_branch_commands(capsys):
    code, out, _ = run(capsys, "branch", "constraints", "--s", "", "--t", "1")
    assert code == 0 and "[4]" in out and "[2]" in out
    code, out, _ = run(
        capsys, "branch", "apply", "--s", "", "--t", "0", "--point", "", "--tail"
    )
    assert code == 0 and "900" in out
    code, out, _ = run(
        capsys, "branch", "find", "--s", "", "--point", "1,1,900", "--tail"
    )
    assert code == 0 and "t=[1]" in out


@pytest.mark.parametrize(
    "tail, verdict, exit_code",
    [
        # coordinate 2 reads 1 under the all-ones tail: the must-not-be-1 index fails
        (("--tail",), "no", 1),
        # without a tail, coordinate 2 lies past the prefix: no verdict
        ((), "unknown", 0),
    ],
)
def test_branch_apply_reports_a_point_outside_the_domain(capsys, tail, verdict, exit_code):
    code, out, err = run(
        capsys, "branch", "apply", "--s", "0", "--t", "1,0", "--point", "1,1", *tail
    )
    assert (code, err) == (exit_code, "")
    assert out == f"point is {verdict} for the domain of (s=[0], t=[1, 0])\n"


@pytest.mark.parametrize(
    "action, point, bad",
    [
        # 7 is not in A_0 = {1, 4}; before, apply printed coordinate 2 = 57600
        (("apply", "--t", "0"), "7,1,1", 0),
        (("find",), "1,1,4", 2),  # 4 is not in A_2
        (("apply", "--t", "1"), "4,36,0", 2),
        (("find",), "1,-1", 1),
        (("find",), "1,1,1,1,1,1," + "7" * 4000, 6),
    ],
)
def test_branch_refuses_points_outside_the_space(capsys, action, point, bad):
    code, out, err = run(capsys, "branch", *action, "--s", "", "--point", point, "--tail")
    assert code == 2 and out == ""
    assert err == f"usage error: point coordinate {bad} is not in the alphabet A_{bad}\n"


def test_branch_refuses_a_negative_stem(capsys):
    code, out, err = run(capsys, "branch", "find", "--s=-1", "--point", "1")
    assert code == 2 and out == ""
    assert err.startswith("usage error: entries must be naturals")


def test_branch_refuses_codes_past_the_materialization_cutoff(capsys):
    # code((4095)) is still an int; code((4096)) is kept in factored form
    code, out, _ = run(capsys, "branch", "constraints", "--s", "", "--t", "4095")
    assert code == 0 and out.startswith("branch (s=[], t=[4095])")
    for argv in (
        ("constraints", "--s", "", "--t", "4096"),
        ("constraints", "--s", "", "--t", "100000"),
        ("apply", "--s", "", "--t", "4096", "--point", "1"),
        ("find", "--s", "4096", "--point", "1", "--tail"),
    ):
        code, out, err = run(capsys, "branch", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("capacity error: code(") and "cutoff" in err, argv


def test_relations_dot(capsys):
    code, out, _ = run(capsys, "relations", "--length", "3", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 6
    assert out.count("n0 [") == 1
    assert out.strip().startswith("graph") and out.strip().endswith("}")


def test_relations_json_empty_at_depth_one(capsys):
    code, out, _ = run(capsys, "relations", "--length", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [] and doc["node_count"] == 2


def test_relations_bad_format(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["relations", "--length", "1", "--format", "svg"])
    assert exc.value.code == 2


def test_psi(capsys):
    code, out, _ = run(capsys, "psi", "1,1,1", "1,1,900")
    assert code == 0 and "psi = 0" in out and "t=[0]" in out
    code, out, _ = run(capsys, "psi", "1,1,1", "1,1,1")
    assert code == 0 and out.strip() == "none"
    code, _, err = run(capsys, "psi", "1", "1,1")
    assert code == 2 and "usage" in err


@pytest.mark.parametrize(
    "s, t, arg, i",
    [("5", "5", "s", 0), ("-1", "-1", "s", 0), ("1", "5", "t", 0), ("1,1,7", "1,1,1", "s", 2)],
)
def test_psi_refuses_nodes_outside_the_space(capsys, s, t, arg, i):
    code, out, err = run(capsys, "psi", s, t)
    assert code == 2 and out == ""
    assert err == f"usage error: {arg} coordinate {i} is not in the alphabet A_{i}\n"


def test_chain(capsys):
    code, out, _ = run(capsys, "chain", "1,1,1", "1,1,900", "--length", "3")
    assert code == 0 and out.count("--") == 1
    code, out, _ = run(capsys, "chain", "1,1,1", "4,1,1", "--length", "3")
    assert code == 0 and "none" in out


def test_sigma(capsys):
    code, out, _ = run(capsys, "sigma", "--s", "1", "--k", "3")
    assert code == 0 and "= 5" in out


@pytest.mark.parametrize("k, upto", [(3, 3), (9, 3), (0, 4096), (0, 4097), (5, 9000)])
def test_sigma_streams_the_bytes_of_the_joined_lines(capsys, tmp_path, k, upto):
    code, out, _ = run(capsys, "sigma", "--s", "2,1", "--k", str(k), "--upto", str(upto))
    sig = good.IndexMap((2, 1))
    assert code == 0
    assert out == "\n".join(f"sigma_[2, 1]({i}) = {sig(i)}" for i in range(k, upto)) + "\n"
    path = tmp_path / "sigma.txt"
    code, printed, _ = run(
        capsys, "sigma", "--s", "2,1", "--k", str(k), "--upto", str(upto), "--out", str(path)
    )
    assert code == 0 and printed == "" and path.read_text(encoding="utf-8") == out


def test_sigma_on_a_long_index_is_quick(capsys):
    # the level divisors of 150 entries of 1000 (codes of about 1.3M bits)
    # are one running product, not 150 codes built anew
    start = time.perf_counter()
    code, out, _ = run(capsys, "sigma", "--s", ",".join(["1000"] * 150), "--k", "5")
    assert code == 0 and out.endswith("(5) = 5\n")
    assert time.perf_counter() - start < 10


def test_sigma_range_at_the_cap_prints(capsys):
    cap = verifier.HORIZON_CAP
    code, out, _ = run(capsys, "sigma", "--s", "", "--k", "7", "--upto", str(7 + cap))
    assert code == 0 and out.count("\n") == cap
    assert out.endswith(f"sigma_[]({6 + cap}) = {6 + cap}\n")


def test_sigma_range_past_the_cap_is_refused(capsys):
    cap = verifier.HORIZON_CAP
    code, out, err = run(capsys, "sigma", "--s", "1", "--k", "7", "--upto", str(8 + cap))
    assert code == 2 and out == ""
    assert err.startswith(f"capacity error: sigma would list {cap + 1} indices")


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "--s", "1", "--t", "2", "--u", "011")
    assert code == 0 and "disagreement at output index" in out


def test_witness_refuses_non_binary_word(capsys):
    code, out, err = run(capsys, "witness", "--s", "1", "--t", "2", "--u", "0120")
    assert code == 2 and out == ""
    assert "binary word" in err


def test_witness_refuses_over_cap_tail(capsys):
    # the tail past the empty word would be 2^31 - 2 bytes
    code, out, err = run(capsys, "witness", "--s", "1", "--t", "30")
    assert code == 2 and out == ""
    assert err.startswith("capacity error: the witness for indices (1,) and (30,)")


def test_verify_cascade_refuses_negative_trials(capsys):
    code, out, err = run(capsys, "verify", "cascade", "--trials", "-3")
    assert code == 2 and out == ""
    assert "trials >= 0" in err


@pytest.mark.parametrize(
    "argv, negative",
    [
        (("departure", "--samples", "-1", "--depth", "1", "--horizon", "100"), "samples"),
        (("departure", "--depth", "-1"), "depth"),
        (("no-isolated", "--horizon", "-1", "--samples", "-2"), "horizon, samples"),
        (("arrival-scan", "--horizon", "-5", "--depth", "1"), "horizon"),
        (("arrival-scan", "--max-chain", "-1"), "max_chain"),
    ],
)
def test_verify_refuses_negative_counts(capsys, argv, negative):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {argv[0]} parameters must be naturals: {negative}\n"


def test_verify_good_suite_refuses_negative_parameters(capsys):
    code, out, err = run(
        capsys, "verify", "good-suite", "--horizon", "-5", "--max-u-len", "-1"
    )
    assert code == 2 and out == ""
    assert "horizon" in err and "max_u_len" in err


def test_verify_good_suite_refuses_horizon_over_cap(capsys):
    code, out, err = run(capsys, "verify", "good-suite", "--horizon", "100000000")
    assert code == 2 and out == ""
    assert "capacity error" in err and "horizon" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--max-u-len", "30", "--horizon", "10", "--max-s-len", "1", "--max-entry", "1"),
        ("--max-s-len", "30", "--max-entry", "10", "--horizon", "10"),
    ],
)
def test_verify_good_suite_refuses_over_cap_sweeps(capsys, argv):
    code, out, err = run(capsys, "verify", "good-suite", *argv)
    assert code == 2 and out == ""
    assert err.startswith("capacity error: ") and "more than" in err


def test_verify_good_suite_refuses_large_codes(capsys):
    # inside the count caps (100,001 maps x 800 reads), over them in 64-bit
    # words of the largest code
    code, out, err = run(
        capsys, "verify", "good-suite", "--max-s-len", "1", "--max-entry", "100000",
        "--horizon", "800", "--max-u-len", "0",
    )
    assert code == 2 and out == ""
    assert err.startswith("capacity error: ") and "64-bit words" in err


def test_verify_cascade_refuses_over_cap_shape_before_any_trial(capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran before the capacity test")

    monkeypatch.setattr(cascade, "gen_cascade", no_trials)
    monkeypatch.setitem(
        verifier.SUITES, "cascade",
        functools.partial(verifier.verify_cascade, max_depth=9, max_branching=9),
    )
    code, out, err = run(capsys, "verify", "cascade", "--trials", "100")
    assert code == 2 and out == ""
    assert err.startswith("capacity error: a depth-9 branching-9")


def test_verify_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "cascade", "--trials", "5", "--seed", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    code, out, _ = run(
        capsys, "verify", "cascade", "--trials", "5", "--seed", "0",
        "--inject-fault", "epsilon-nonstrict",
    )
    assert code == 1


@pytest.mark.parametrize(
    "suite, fault",
    [("cascade", "drop-non-ones"), ("departure", "epsilon-nonstrict")],
)
def test_verify_refuses_fault_the_suite_ignores(capsys, suite, fault):
    code, out, err = run(capsys, "verify", suite, "--inject-fault", fault)
    assert code == 2 and out == ""
    assert f"cannot inject fault {fault}" in err


def test_verify_refuses_flag_the_suite_ignores(capsys):
    code, out, err = run(capsys, "verify", "mutation", "--depth", "2", "--trials", "3")
    assert code == 2 and out == ""
    assert "does not take --depth, --trials" in err
    # a suite with no fault parameter takes no --inject-fault
    code, out, err = run(capsys, "verify", "good-suite", "--inject-fault", "drop-non-ones")
    assert code == 2 and out == ""
    assert "suite good-suite does not take --inject-fault" in err


# The flags each suite takes on the CLI, with a value to give each.  The CLI
# reads them off the suite's signature, so a renamed parameter would drop a
# flag without this list.
_SUITE_FLAGS = {
    "departure": dict(
        depth=1, horizon=2, samples=3, seed=4, fault="drop-non-ones", relations_depth=5
    ),
    "no-isolated": dict(depth=1, horizon=2, samples=3, seed=4, fault="rewrite-off-by-one"),
    "arrival-scan": dict(depth=1, horizon=2, seed=4, max_chain=5),
    "good-suite": dict(horizon=2, max_s_len=6, max_entry=7, max_u_len=8),
    "cascade": dict(seed=4, trials=9, fault="epsilon-nonstrict"),
    "mutation": dict(seed=4),
}


@pytest.mark.parametrize("suite", sorted(verifier.SUITES))
def test_verify_passes_exactly_the_given_flags(capsys, monkeypatch, suite):
    calls = []
    real = verifier.SUITES[suite]

    @functools.wraps(real)
    def recorder(**kwargs):
        calls.append(kwargs)
        return verifier.VerificationReport(suite, kwargs, [])

    monkeypatch.setitem(verifier.SUITES, suite, recorder)
    assert run(capsys, "verify", suite)[0] == 0
    flags = _SUITE_FLAGS[suite]
    argv = [a for f, v in flags.items() for a in (cli._flag(f), str(v))]
    assert run(capsys, "verify", suite, *argv)[0] == 0
    assert calls == [{}, flags]


@pytest.mark.parametrize("suite", sorted(verifier.SUITES))
def test_parameter_names_are_the_signature(suite):
    fn = verifier.SUITES[suite]
    names = tuple(inspect.signature(fn).parameters)
    assert cli._parameter_names(fn) == names
    # through a functools.wraps wrapper, and a partial binding by keyword
    wrapped = functools.wraps(fn)(lambda **kwargs: fn(**kwargs))
    assert cli._parameter_names(wrapped) == names
    bound = functools.partial(fn, **{names[-1]: None})
    assert cli._parameter_names(bound) == tuple(inspect.signature(bound).parameters)


# What the kit itself adds to sys.modules on import, over what a bare import
# of the standard modules it builds on loads on the same Python
_IMPORT_PROBE = """
import sys
import argparse, json, random, fractions, enum
before = set(sys.modules)
import hurewicz_kit.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site-packages, as a cold `hurewicz-kit` start has none it needs
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    added = set(out.split())
    assert "hurewicz_kit.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}, sorted(added)


def test_verify_out_writes_the_report_and_prints_only_the_summary(capsys, tmp_path):
    path = tmp_path / "cascade.json"
    code, out, err = run(capsys, "verify", "cascade", "--trials", "5", "--out", str(path))
    assert (code, err) == (0, "")
    assert out == "suite cascade: failed=0 inconclusive=0\n"
    assert path.read_bytes() == verifier.verify_cascade(trials=5).to_json_bytes()


def test_verify_departure_refuses_relation_census_over_cap(capsys, monkeypatch):
    def no_branch_work(*args):
        raise AssertionError("branch work ran before the node-count test")

    monkeypatch.setattr(verifier, "_branch_axiom_checks", no_branch_work)
    code, out, err = run(capsys, "verify", "departure", "--relations-depth", "5")
    assert code == 2 and out == ""
    assert err.startswith("capacity error: depth 5 has 3263442 nodes")


def test_verify_cascade_refuses_relations_depth(capsys):
    code, out, err = run(capsys, "verify", "cascade", "--relations-depth", "2")
    assert code == 2 and out == ""
    assert "suite cascade does not take --relations-depth" in err


def test_verify_departure_relations_depth_matches_library(capsys):
    params = dict(depth=1, horizon=100, samples=2, seed=3, relations_depth=4)
    argv = [a for f, v in params.items() for a in (cli._flag(f), str(v))]
    code, out, _ = run(capsys, "verify", "departure", *argv)
    assert code == 0
    assert out.encode() == verifier.verify_departure(**params).to_json_bytes()


def test_verify_departure_small(capsys):
    code, out, _ = run(
        capsys, "verify", "departure", "--depth", "2", "--horizon", "300",
        "--samples", "5", "--seed", "0",
    )
    assert code == 0
    assert json.loads(out)["suite"] == "departure"


def test_cli_byte_determinism(capsys):
    args = ("verify", "cascade", "--trials", "8", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("relations", "--length", "2", "--format", "dot")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _, _ = run(
        capsys, "relations", "--length", "2", "--format", "dot", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("graph")
