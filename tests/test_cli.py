"""CLI behavior: JSON reports, seeds, exit codes, subprocess entry."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import netalign
import netalign.cli as cli
from genutils import diamond_chain, permute_sessions
from netalign import build_plan, classify, corpus_names, load_corpus
from netalign.cli import SEED_ENV, main
from netalign.dag import serialize_scenario
from netalign.xfer import COUPLING_IDENTITIES, ResampleLimitError


def corpus_file(tmp_path, name):
    path = tmp_path / f"{name}.scn"
    path.write_text(serialize_scenario(load_corpus(name)))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def one_error_line(capsys, argv):
    """stderr of `main(argv)`, which must exit 2 with nothing on stdout and one `error:` line."""
    try:
        rc = main(argv)
    except SystemExit as stop:  # flag errors end inside argparse
        rc = stop.code
    out, err = capsys.readouterr()
    assert (rc, out) == (2, ""), err
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
    return err


# -- classify ----------------------------------------------------------------------


def test_classify_report_is_frozen_and_repeatable(tmp_path, capsys):
    path = corpus_file(tmp_path, "shared_bottleneck")
    assert main(["classify", path]) == 0
    first = capsys.readouterr().out
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out == first  # byte-identical rerun

    doc = json.loads(first)
    assert doc["command"] == "classify"
    assert doc["type"] == "I"
    assert doc["optimal_rate"] == "1/3"
    assert doc["eta_is_one"] is True
    assert doc["half_feasible"] is None
    assert doc["p1_is_one"] and doc["p2_is_eta"]
    assert doc["third_relation_1"] is False
    assert doc["scenario"] == {
        "nodes": 8, "edges": 7,
        "sessions": [["S1", "D1"], ["S2", "D2"], ["S3", "D3"]],
        "sigma": [1, 2, 3], "tau": [5, 6, 7],
    }
    assert doc["connectivity"] == [[True] * 3] * 3


def test_classify_cross_check_agrees(tmp_path, capsys):
    path = corpus_file(tmp_path, "eta_one_corridor")
    doc = run_json(capsys, ["classify", path, "--cross-check", "--trials", "8"])
    checks = doc["cross_check"]
    assert set(checks) == set(COUPLING_IDENTITIES)
    for name, entry in checks.items():
        assert entry["agrees"] is True, name
        assert entry["graph"] == entry["randomized"]
        assert 0.0 <= entry["false_accept_bound"] < 1e-3


def test_classify_reduced_fields(tmp_path, capsys):
    path = corpus_file(tmp_path, "three_disjoint")
    doc = run_json(capsys, ["classify", path])
    assert doc["type"] == "Reduced"
    assert doc["optimal_rate"] == "1/2"
    assert doc["half_feasible"] is True
    assert doc["eta_is_one"] is None
    assert doc["p1_is_one"] is None and doc["third_relation_2"] is None
    assert doc["connectivity"] == [[True, False, False],
                                   [False, True, False],
                                   [False, False, True]]


# -- simulate ----------------------------------------------------------------------


def test_simulate_type_one(tmp_path, capsys):
    path = corpus_file(tmp_path, "two_corridor")
    doc = run_json(capsys, ["simulate", path, "--trials", "25", "--seed", "3"])
    assert doc["plan"] == {"kind": "TrivialThird", "n": None, "slots": 3,
                           "symbols": [1, 1, 1]}
    assert doc["trials"] == 25 and doc["successes"] == 25
    assert doc["success_probability"] == 1.0
    assert doc["rates"] == ["1/3", "1/3", "1/3"]
    assert doc["type"] == "I" and doc["seed"] == 3


def test_simulate_eta_general_n(tmp_path, capsys):
    path = corpus_file(tmp_path, "rich_type3")
    doc = run_json(capsys, ["simulate", path, "--n", "2", "--trials", "10"])
    assert doc["plan"] == {"kind": "EtaGeneral", "n": 2, "slots": 5,
                           "symbols": [3, 2, 2]}
    assert doc["successes"] == 10
    assert doc["rates"] == ["3/5", "2/5", "2/5"]


@pytest.mark.parametrize("name, bits", [(name, 32) for name in corpus_names()]
                         + [("rich_type3", 24)])
def test_simulate_wide_fields(tmp_path, capsys, name, bits):
    # fields above 2^16 sweep in lifted form and eliminate with its mul/inv
    _, verdict = classify(load_corpus(name))
    plan = build_plan(verdict)
    path = corpus_file(tmp_path, name)
    doc = run_json(capsys, ["simulate", path, "--field-bits", str(bits), "--trials", "30"])
    assert doc["field_bits"] == bits and doc["trials"] == 30
    assert (doc["plan"]["kind"], doc["plan"]["slots"]) == (plan.kind, plan.N)
    assert doc["success_probability"] >= 0.99


# -- oracle ------------------------------------------------------------------------


def test_oracle_report(tmp_path, capsys):
    path = corpus_file(tmp_path, "shared_bottleneck")
    doc = run_json(capsys, ["oracle", path])
    assert doc["monomials"] == {f"m{j}{i}": 1 for j in (1, 2, 3) for i in (1, 2, 3)}
    verdicts = doc["identities"]
    assert all(verdicts[f"p{i}_is_one"] and verdicts[f"p{i}_is_eta"] for i in (1, 2, 3))
    assert verdicts["eta_is_one"] is True
    assert not any(verdicts[f"third_relation_{i}"] for i in (1, 2, 3))


def test_oracle_refuses_exponential_graphs(tmp_path, capsys):
    path = tmp_path / "big.scn"
    path.write_text(serialize_scenario(diamond_chain(21)))  # 2^21 s1-to-r1 paths
    assert main(["oracle", str(path)]) == 4
    assert "error:" in capsys.readouterr().err


# -- seed resolution ----------------------------------------------------------------


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    path = corpus_file(tmp_path, "shared_bottleneck")
    monkeypatch.setenv(SEED_ENV, "7")
    assert run_json(capsys, ["classify", path])["seed"] == 7
    # explicit flag beats the environment
    assert run_json(capsys, ["classify", path, "--seed", "3"])["seed"] == 3
    monkeypatch.delenv(SEED_ENV)
    assert run_json(capsys, ["classify", path])["seed"] == 0


def test_bad_environment_seed(tmp_path, capsys, monkeypatch):
    path = corpus_file(tmp_path, "shared_bottleneck")
    monkeypatch.setenv(SEED_ENV, "abc")
    assert "NETALIGN_SEED" in one_error_line(capsys, ["classify", path])


def test_seed_may_start_with_minus(tmp_path, capsys, monkeypatch):
    path = corpus_file(tmp_path, "shared_bottleneck")
    assert run_json(capsys, ["classify", path, "--seed=-7"])["seed"] == -7
    assert run_json(capsys, ["simulate", path, "--seed", "-7", "--trials", "2"])["seed"] == -7
    monkeypatch.setenv(SEED_ENV, "-3")
    assert run_json(capsys, ["classify", path])["seed"] == -3


# -- failure exit codes ---------------------------------------------------------------


def test_missing_file(tmp_path, capsys):
    one_error_line(capsys, ["classify", str(tmp_path / "nope.scn")])


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("edge 1 a\n")
    assert one_error_line(capsys, ["classify", str(path)]).startswith("error: line 1: ")


def test_file_without_edges(tmp_path, capsys):
    path = tmp_path / "bare.scn"
    path.write_text("session 1 a b\nsession 2 c d\nsession 3 e f\n")
    assert "not in graph" in one_error_line(capsys, ["classify", str(path)])


# Flags and NETALIGN_SEED are read as the file's numbers are: ASCII digits,
# no underscore, sign or space (a seed alone may start with '-').
@pytest.mark.parametrize("argv, env", [
    (["classify", "{path}", "--trials", "x"], None),
    (["classify", "{path}", "--cross-check", "--trials", "\u0663"], None),  # Arabic-Indic three
    (["classify", "{path}", "--seed", "1_000"], None),
    (["classify", "{path}", "--seed", "+5"], None),
    (["classify", "{path}", "--seed", " 7"], None),
    (["classify", "{path}", "--seed=-"], None),
    (["simulate", "{path}", "--n", "+2"], None),
    (["simulate", "{path}", "--field-bits", "\uff18"], None),  # fullwidth eight
    (["classify", "{path}"], "abc"),
    (["classify", "{path}"], "1_000"),
    (["classify", "{path}"], ""),
    (["classify"], None),  # no scenario
    (["frob", "{path}"], None),  # unknown command
    ([], None),  # no command
    (["classify", "{path}", "--frob"], None),  # unknown flag
], ids=lambda v: repr(v) if isinstance(v, list) else f"env={v!r}")
def test_bad_input_prints_one_error_line(tmp_path, capsys, monkeypatch, argv, env):
    path = corpus_file(tmp_path, "three_disjoint")
    if env is not None:
        monkeypatch.setenv(SEED_ENV, env)
    one_error_line(capsys, [a.format(path=path) for a in argv])


@pytest.mark.parametrize("argv, env, quoted", [
    (["--seed=-abc"], None, "'-abc'"),
    (["--seed=-"], None, "'-'"),
    ([], "--5", "'--5'"),
], ids=["flag -abc", "flag -", "env --5"])
def test_seed_errors_quote_the_text_as_given(tmp_path, capsys, monkeypatch, argv, env, quoted):
    path = corpus_file(tmp_path, "three_disjoint")
    if env is not None:
        monkeypatch.setenv(SEED_ENV, env)
    err = one_error_line(capsys, ["classify", path] + argv)
    assert err.endswith(f"must be written in ASCII digits, got {quoted}\n"), err


def test_seed_past_the_digit_limit_is_named_not_echoed(tmp_path, capsys, monkeypatch):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter reads numbers of any length")
    path = corpus_file(tmp_path, "three_disjoint")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        flag = one_error_line(capsys, ["classify", path, "--seed", "7" * 5000])
        monkeypatch.setenv(SEED_ENV, "7" * 5000)
        env = one_error_line(capsys, ["classify", path])
    finally:
        sys.set_int_max_str_digits(limit)
    for err in (flag, env):
        assert len(err.encode()) < 200 and "5000 digits" in err and "4300" in err, err
    assert env == "error: NETALIGN_SEED has 5000 digits, more than the 4300 a number may have\n"


LONG = "x" * 5000
CUT = f"'{'x' * 40}'... (5000 characters)"


# A value past 40 characters is quoted by its first 40 and its length; a
# shorter one is quoted whole, as before.
@pytest.mark.parametrize("argv, env, edit, message", [
    (["--seed", LONG], None, None,
     "netalign classify: argument --seed: value must be written in ASCII digits, got " + CUT),
    ([], LONG, None, "NETALIGN_SEED must be written in ASCII digits, got " + CUT),
    ([], None, ("edge 1 S1 hub", f"{LONG} S1 hub"), "line 1: unknown directive " + CUT),
    ([], None, ("edge 1 S1 hub", f"edge {LONG} S1 hub"),
     "line 1: edge id must be written in ASCII digits, got " + CUT),
    ([], None, ("session 1 S1 D1", f"session 1 {LONG} D1"), f"sender node {CUT} not in graph"),
    ([], None, ("session 3 S3 D3", f"session 3 S3 {LONG}"), f"receiver node {CUT} not in graph"),
    ([], None, ("session 2 S2 D2", "session 2 S2 hub"),
     "receiver 'hub' must have exactly one incoming and no outgoing edge"),
], ids=["--seed", "NETALIGN_SEED", "directive", "edge id", "sender", "receiver", "short"])
def test_long_values_are_quoted_cut_with_their_length(tmp_path, capsys, monkeypatch,
                                                      argv, env, edit, message):
    path = tmp_path / "long.scn"
    text = serialize_scenario(load_corpus("shared_bottleneck"))
    if edit is not None:
        assert text.count(edit[0] + "\n") == 1
        text = text.replace(edit[0] + "\n", edit[1] + "\n")
    path.write_text(text)
    if env is not None:
        monkeypatch.setenv(SEED_ENV, env)
    assert one_error_line(capsys, ["classify", str(path)] + argv) == f"error: {message}\n"


@pytest.mark.parametrize("line, bad", [
    ("edge 1_0 S1 hub", "edge 1 S1 hub"),  # int() would read 10
    ("edge \u0663 S1 hub", "edge 1 S1 hub"),  # Arabic-Indic three: not "duplicate id 3"
    ("edge +1 S1 hub", "edge 1 S1 hub"),
    ("edge -1 S1 hub", "edge 1 S1 hub"),
    ("session +2 S2 D2", "session 2 S2 D2"),
    ("session \uff12 S2 D2", "session 2 S2 D2"),  # fullwidth two
])
def test_numbers_must_be_ascii_digits(tmp_path, capsys, line, bad):
    path = tmp_path / "bad.scn"
    text = serialize_scenario(load_corpus("shared_bottleneck"))
    path.write_text(text.replace(bad + "\n", line + "\n"), encoding="utf-8")
    err = one_error_line(capsys, ["classify", str(path)])
    assert err.startswith("error: line ")
    assert "ASCII digits" in err and "duplicate" not in err


@pytest.mark.parametrize("bad, what", [
    ("edge 1 S1 hub", "edge id"),
    ("session 2 S2 D2", "session index"),
])
def test_numbers_past_the_digit_limit_exit_2(tmp_path, capsys, bad, what):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter reads numbers of any length")
    word, _, rest = bad.split(" ", 2)
    path = tmp_path / "long.scn"
    text = serialize_scenario(load_corpus("shared_bottleneck"))
    path.write_text(text.replace(bad + "\n", f"{word} {'7' * 5000} {rest}\n"))
    lineno = text.splitlines().index(bad) + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["classify", str(path)]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert err == (f"error: line {lineno}: {what} has 5000 digits, "
                   "more than the 4300 a number may have\n")


@pytest.mark.parametrize("extra, message", [
    (["edge {id} x y", "edge {id} y z"], "line {n}: duplicate edge id {cut}"),
    (["edge {id} hub hub"], "self-loop on edge {cut}"),
], ids=["duplicate", "self-loop"])
def test_long_edge_ids_are_quoted_cut(tmp_path, capsys, extra, message):
    # a 4,000-digit id is a valid number, yet its message quotes only its start
    big = "7" * 4000
    path = tmp_path / "long.scn"
    text = serialize_scenario(load_corpus("shared_bottleneck"))
    path.write_text(text + "".join(line.format(id=big) + "\n" for line in extra))
    err = one_error_line(capsys, ["classify", str(path)])
    cut = f"'{'7' * 40}'... (4000 characters)"
    assert err == f"error: {message.format(n=len(text.splitlines()) + 2, cut=cut)}\n"
    assert len(err.encode()) < 150, err


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    # a UTF-8 byte-order mark before the first line is not part of it
    text = serialize_scenario(load_corpus("rich_type3"))
    plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    for command in (["classify", "--cross-check"], ["simulate", "--trials", "5"], ["oracle"]):
        outs = []
        for path in (plain, marked):
            assert main(command[:1] + [str(path)] + command[1:]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary.scn"
    path.write_bytes(b"edge 1 a b\xff\n")
    assert "UTF-8" in one_error_line(capsys, ["classify", str(path)])


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "0"],
    ["simulate", "--n", "0"],
    ["simulate", "--field-bits", "0"],
    ["simulate", "--field-bits", "33"],
    ["classify", "--field-bits", "40"],
    ["classify", "--cross-check", "--trials", "0"],
    ["classify", "--cross-check", "--trials", "-5"],
])
def test_out_of_range_flags_exit_2(tmp_path, capsys, argv):
    path = corpus_file(tmp_path, "three_disjoint")
    err = one_error_line(capsys, argv[:1] + [path] + argv[1:])
    assert "must be" in err and err.startswith(f"error: netalign {argv[0]}: argument --")


def test_model_violation_file(tmp_path, capsys):
    path = tmp_path / "cycle.scn"
    path.write_text("\n".join([
        "edge 1 s1 a", "edge 2 a b", "edge 3 b a", "edge 4 a r1",
        "edge 5 s2 c", "edge 6 c r2", "edge 7 s3 d", "edge 8 d r3",
        "session 1 s1 r1", "session 2 s2 r2", "session 3 s3 r3",
    ]) + "\n")
    assert "cycle" in one_error_line(capsys, ["classify", str(path)])


def test_resample_limit_exit_code(tmp_path, capsys, monkeypatch):
    path = corpus_file(tmp_path, "three_disjoint")

    def boom(*a, **k):
        raise ResampleLimitError("forced")

    monkeypatch.setattr(cli, "simulate", boom)
    assert main(["simulate", path, "--trials", "5"]) == 3
    assert "forced" in capsys.readouterr().err


def test_resample_limit_names_the_files_pairs(tmp_path, capsys):
    # lead 2: session 2 plays role 1, and the error names the file's own
    # transfer functions, sorted in the file's numbering
    path = tmp_path / "lead2.scn"
    path.write_text(serialize_scenario(guard_network("type_two_gadget_213")))
    assert main(["simulate", str(path), "--field-bits", "1", "--trials", "5"]) == 3
    assert capsys.readouterr().err == (
        "error: 100 consecutive slot draws had a zero denominator: "
        "m12 zero in 91, m13 zero in 98, m23 zero in 96, m31 zero in 93\n")


# -- stdout guard ---------------------------------------------------------------------

GUARD_COMMANDS = {
    "cross_check_32": ["classify", "--cross-check", "--field-bits", "32"],
    "cross_check_8": ["classify", "--cross-check", "--field-bits", "8"],
    # lifted sweeps and identity sides at an odd degree
    "cross_check_17": ["classify", "--cross-check", "--field-bits", "17"],
    "simulate_50": ["simulate", "--trials", "50"],
    # lifted elimination and the Euclid inverse
    "simulate_20_n2": ["simulate", "--trials", "20", "--field-bits", "20", "--n", "2"],
    # resamples and decode failures
    "simulate_4": ["simulate", "--trials", "30", "--field-bits", "4"],
    # the largest plan (7 slots on rich_type3) in a lifted field of odd degree
    "simulate_17_n3": ["simulate", "--trials", "20", "--field-bits", "17", "--n", "3"],
}


# Session orders of `type_two_gadget` whose plans lead with sessions 2 and 3;
# every corpus gadget leads with session 1.
LEAD_ORDERS = {"type_two_gadget_213": (2, 1, 3), "type_two_gadget_321": (3, 2, 1)}


def guard_network(name):
    """A corpus gadget, or `type_two_gadget` with its sessions in a LEAD_ORDERS order."""
    if name in LEAD_ORDERS:
        return permute_sessions(load_corpus("type_two_gadget"), LEAD_ORDERS[name])
    return load_corpus(name)


def scrambled_text(name):
    """A guard network with fresh scattered ids, shuffled lines and comments.

    The new ids are drawn at random, so their order differs from the
    topological order; nothing printed may depend on that difference
    except the ids themselves.
    """
    rng = random.Random(f"scramble:{name}")
    lines = serialize_scenario(guard_network(name)).splitlines()
    edges = [line.split()[2:] for line in lines if line.startswith("edge ")]
    fresh = rng.sample(range(1000), len(edges))
    lines = [line for line in lines if not line.startswith("edge ")]
    lines += [f"edge {eid} {tail} {head}" for eid, (tail, head) in zip(fresh, edges)]
    lines += ["# a comment", ""]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def guard_digests(tmp_path, capsys, name):
    plain = tmp_path / f"{name}.scn"
    plain.write_text(serialize_scenario(guard_network(name)))
    scrambled = tmp_path / f"{name}-scrambled.scn"
    scrambled.write_text(scrambled_text(name))
    digests = {}
    for key, argv in GUARD_COMMANDS.items():
        out = []
        for path in (str(plain), str(scrambled)):
            assert main(argv[:1] + [path] + argv[1:]) == 0
            out.append(capsys.readouterr().out)
        digests[key] = hashlib.sha256("".join(out).encode()).hexdigest()
    return digests


# sha256 of the stdout of each command on the network, then on its scrambled copy.
GUARD_DIGESTS = {
    "eta_one_corridor": {
        "cross_check_32": "34bd207364fb52c120d5db8aa2289d488269c202145e988cb4d3971fec77bc97",
        "cross_check_8": "48f6ac3e36672103e8de27f8fbaefc911c3aaef7b4a3165a0d5d1c7158e00977",
        "cross_check_17": "f91332fa911dc1485a2f65ebdf3c03457fa63b9b864452cee1bed0de4f433872",
        "simulate_50": "f2efc261552588c5185d4bae7ce4624f5c2997b940e99bf84b9dd8799bbabcf3",
        "simulate_20_n2": "1c2bcb1c4f68c9d088ef01d0f6dd1b7146fe6b48c83deee0fbb84dea67b19281",
        "simulate_4": "26c15543b9d650e23b353fba95f14f7ef4dba20fd14ca57bc35307dfc8ae0552",
        "simulate_17_n3": "3bd4b9ea4c20b8c56cbe00f7dedb41fc0f2a102686be8f0437c631f61116f525",
    },
    "m21_dead": {
        "cross_check_32": "5c2d493a5d38209b09167eafbff77b939103c6193cfb218d968284c014d0e50b",
        "cross_check_8": "7b0f5ebf8c11004a86fcbcc07056253afaddf418b4eb722e84e5dc934c63ffc4",
        "cross_check_17": "1f973b3c30c6bb43fef288e438aee5cca43dc5e386315e187081fb2392aeb4d7",
        "simulate_50": "147f7a4469b62b8aeb1a35aee54e2a719dc9c7c8e1abd1d947fce8ab61ebf821",
        "simulate_20_n2": "987be51363c16604db44a2a4f482613b732f76c40e95010c98730319cd45a6be",
        "simulate_4": "11e4b3b015cdf1ce0a2b8c0e8d96b554666a45a09db05d51e87850c3c9d0ee0d",
        "simulate_17_n3": "2130b5b946c8fe4639dbeeed27c3ed73002f064bb2f7e876a79dbe8045a95d6e",
    },
    "rich_type3": {
        "cross_check_32": "d40f3b08b45a2b5486a41a3e864f96e9fdeea075f1996c22e13ad93e845c69e5",
        "cross_check_8": "4476c2756202bbb3453a646161e34fce77931bb7c297043aee69b602963fe5f2",
        "cross_check_17": "cde6468905338983b39995c8a737b2c1e6c0b262738bac41d1c49551c907d33f",
        "simulate_50": "07a31642c04e5bb857bd799c545e702d0312d16fc5be0a783fbad128b5c3edd3",
        "simulate_20_n2": "091f0033fe30b11c0dbf9d63b140cf814d356b60e5096c6281c36950ce8181ca",
        "simulate_4": "8ee2590d3af27019859cce28ddd684931735fae2c05e4e3d54cdd05b6b0901a8",
        "simulate_17_n3": "2625a4ffb69565f423bae7e87fda785eb2cb003048a9eb76c674f958d37e4bd8",
    },
    "shared_bottleneck": {
        "cross_check_32": "b22c298e3b575632ec40f10460769d7dd0c263d3ad2909680a260067188ca00f",
        "cross_check_8": "bca9b8187c4795f50b7e6137147475f04b93c78848a9cc5827928bdd84fce99e",
        "cross_check_17": "1c049cc56aff57b62fa378f2b2ca1ff4e1e6d7472219dfa5753320e849b2be4f",
        "simulate_50": "eeeadcf903136ec3f726d069a1dafc31f0aa6cbc066e05358f01d54f554f3011",
        "simulate_20_n2": "982d2b94c41a940110b7d7f5548a5ee79a9751ab820243a9a8280fcbea3c98ff",
        "simulate_4": "cf20b95f320ecdf294265b9f20ce3fc33459b7c0b51a400c9a0f50e9cc2223d9",
        "simulate_17_n3": "f4a86a91715df01d66cfe8d2ff9466652e9e3787d829b6a3feb182e2d3bceb48",
    },
    "three_disjoint": {
        "cross_check_32": "93de0d3f5243a25d8879fbcb51c7b96acd2ac08bd5baed202cf43dc5ca04f8a1",
        "cross_check_8": "7f875a5231d608a6d9ac0fe428a64cf90c436000cb6c66c93c6685c508febb5d",
        "cross_check_17": "19a72099dc2e5fada3ca32ec32c9844ec4eae79bb673a46c1eac6b5531f2588b",
        "simulate_50": "32b40d52bfa877fcc58e762756a73f48a159900b9fbd8dc085a4ac3eaa8ec05a",
        "simulate_20_n2": "08e4db6fb1580c566f136c32cee14667b47c2d66caceded47be5f69c88c1141b",
        "simulate_4": "8817f25342da62fe3cb5fce9b872a0a1a8c704c6e39eae8008d04d90aa19c71d",
        "simulate_17_n3": "f517db0b7afc2bd9652b97c34d6b44b418a1609ff6ae608dd9508ff7c2eaccd9",
    },
    "two_corridor": {
        "cross_check_32": "e2b61de9b5015269e7868fcd81cbf7bfb9d89618800c7ae4e1cbb65d153c2531",
        "cross_check_8": "cfa810f4e093e6784a725743be5efba6eb1f93113ac3aaaae3bf6e69af363a21",
        "cross_check_17": "3c21d3a1da7a399be2ff6b4a82c6a1580fe7902abe0a574cc78af1387dfedbd5",
        "simulate_50": "211235a95936875b01456270830750670dd7d609ba46c65f2c5fae09e0b4db50",
        "simulate_20_n2": "54b8cdb883d7b96aed52a9169ea2388cbcc07d9465e4c91136422aac79d4c639",
        "simulate_4": "466906fac8e455458c7eb227b188f3cea3a44f70d9a60b5eca524f0d6db9d33a",
        "simulate_17_n3": "add3390d08828cdf1aab0aa80e534462c778d7f6d4abd53cceaeb299cbb3bfab",
    },
    "type_two_gadget": {
        "cross_check_32": "b29428bc9c4bd41bb19262107e89dbf3add686bf431affea6a91f7ccd5e3a02c",
        "cross_check_8": "d7149177053cf91a8f4434ef7d5264118153da265734b9ecfb84a2a2598df4dd",
        "cross_check_17": "dfe96ea36a14951321cb6ebff1b086155dee2f9b964a3362dc7ea26633ecdd16",
        "simulate_50": "899056347ca148f00f4bd7f40fc767babea3220c7ccba699137f43f2fb6986f9",
        "simulate_20_n2": "2bfd9420a94f456c08dc7a55b294405729f1d4f31888bcf8b8fcfa55511cdc66",
        "simulate_4": "9fc3af7579a74653fba61d38e3f8baa5f45134e8486f59fb1ec82fbdbbc379fe",
        "simulate_17_n3": "f159ad024524001d876bc90ed46b592d6463512788ca7728fd6db927f075a767",
    },
    "type_two_gadget_213": {
        "cross_check_32": "2accea4eff08196d38996bec09b6894322443adfeb24d4bee9c2bdccc8fae014",
        "cross_check_8": "28c6ea60a4032cceb94b19834ac7e0b55ef16e1313cb448fb7ff7078071f3bd3",
        "cross_check_17": "633e94e69ffc6f1eec8f9ac4096a28f73144917df83b3b052a49aeb107615a9e",
        "simulate_50": "3ba7ac9f927c7dd8f845c2ab090e26970272c868bb491ffe12c26aad913ca7d3",
        "simulate_20_n2": "0044019bb316703d2390daa54253c773e597e9f4fba8029ade19274c1af99200",
        "simulate_4": "7222c669d3c46b3abd53b71b734bc54f30d27584010a65665ad47bd5f1c0bd4a",
        "simulate_17_n3": "5c6a15d018f120a825549256a7e83ef6b08bfc8d117b16c013df158bf4f0d206",
    },
    "type_two_gadget_321": {
        "cross_check_32": "dab346eee87e3c09b55671fbde54dc84f69483a14f04a3b18f91aa2bfbc1f241",
        "cross_check_8": "0112e4b3a27494a11b7bed04b8b59a7abba572d3444300c6fbd94211b5ab8c92",
        "cross_check_17": "d485c2c176e72a489f8253a1718edae0fc93815995b2ce950999d776b197184c",
        "simulate_50": "30e8bfa2846ae4c6b406be5091d027d146edb3c3250c87c2ec00308f9e7b7fc1",
        "simulate_20_n2": "9c81a62e55e91892ad880a04d0c38beaae59e21143b052f3b3376d578c8db064",
        "simulate_4": "dffaac9b8d1b0f7b2bba489cb8de7c1d4646cee525ee5c8d02e9a76732ce0379",
        "simulate_17_n3": "7c225165b3dbff67a7f00161463266a53e55cadcd8af368b90b056689cc51f1e",
    },
}


@pytest.mark.parametrize("name", corpus_names() + list(LEAD_ORDERS))
def test_stdout_is_pinned(tmp_path, capsys, name):
    assert guard_digests(tmp_path, capsys, name) == GUARD_DIGESTS[name]


# -- module entry ---------------------------------------------------------------------


def test_module_runs_as_subprocess(tmp_path):
    path = corpus_file(tmp_path, "type_two_gadget")
    # the child finds the package under test whether or not PYTHONPATH names it
    src = str(Path(netalign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "netalign.cli", "classify", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["type"] == "II" and doc["optimal_rate"] == "2/5"
    # a bad flag ends the process with exit 2 and one line, on any argparse
    proc = subprocess.run([sys.executable, "-m", "netalign.cli", "classify", path, "--seed", "1_000"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
