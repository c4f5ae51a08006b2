"""CLI behavior: JSON reports, seeds, exit codes, subprocess entry."""

import json
import subprocess
import sys

import pytest

import netalign.cli as cli
from genutils import make_scenario
from netalign import load_corpus
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
    edges = [(1, "s1", "d0")]
    eid = 2
    for i in range(21):  # 2^21 s1-to-r1 paths
        for _ in range(2):
            edges.append((eid, f"d{i}", f"d{i+1}"))
            eid += 1
    edges.append((eid, "d21", "r1"))
    eid += 1
    edges += [(eid, "s2", "c2"), (eid + 1, "c2", "r2"),
              (eid + 2, "s3", "c3"), (eid + 3, "c3", "r3")]
    sc = make_scenario(edges, sessions=((1, "s1", "r1"), (2, "s2", "r2"),
                                        (3, "s3", "r3")))
    path = tmp_path / "big.scn"
    path.write_text(serialize_scenario(sc))
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
    assert main(["classify", path]) == 2
    assert "NETALIGN_SEED" in capsys.readouterr().err


# -- failure exit codes ---------------------------------------------------------------


def test_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.scn")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("edge 1 a\n")
    assert main(["classify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary.scn"
    path.write_bytes(b"edge 1 a b\xff\n")
    assert main(["classify", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as stop:
        main(argv[:1] + [path] + argv[1:])
    assert stop.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_model_violation_file(tmp_path, capsys):
    path = tmp_path / "cycle.scn"
    path.write_text("\n".join([
        "edge 1 s1 a", "edge 2 a b", "edge 3 b a", "edge 4 a r1",
        "edge 5 s2 c", "edge 6 c r2", "edge 7 s3 d", "edge 8 d r3",
        "session 1 s1 r1", "session 2 s2 r2", "session 3 s3 r3",
    ]) + "\n")
    assert main(["classify", str(path)]) == 2


def test_resample_limit_exit_code(tmp_path, capsys, monkeypatch):
    path = corpus_file(tmp_path, "three_disjoint")

    def boom(*a, **k):
        raise ResampleLimitError("forced")

    monkeypatch.setattr(cli, "simulate", boom)
    assert main(["simulate", path, "--trials", "5"]) == 3
    assert "forced" in capsys.readouterr().err


# -- module entry ---------------------------------------------------------------------


def test_module_runs_as_subprocess(tmp_path):
    path = corpus_file(tmp_path, "type_two_gadget")
    proc = subprocess.run([sys.executable, "-m", "netalign.cli", "classify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["type"] == "II" and doc["optimal_rate"] == "2/5"
