"""Command-line interface: subcommand contracts, exit codes, manifests
and exact re-execution.

Each run must leave a manifest plus versioned JSON results; rerun must
reproduce the artifacts byte for byte.
"""

import json
import os
import subprocess
import sys

import pytest

import spongedim

# Absolute path of the source tree the tests import, so the child process
# runs the same code from any working directory.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(spongedim.__file__)))

IFS_DOC = {
    "dimension": 2,
    "maps": [
        {"a": [1 / 3, 0.5], "t": [0.0, 0.0]},
        {"a": [1 / 3, 0.5], "t": [2 / 3, 0.0]},
        {"a": [1 / 3, 0.5], "t": [1 / 3, 0.5]},
    ],
}
WEIGHTS_DOC = {"type": "percolation", "p": [0.4, 0.35, 0.25],
               "alpha": [0.9, 0.8, 0.85]}
SEQ_DOC = {"alpha": [0.9, 0.8, 0.85], "blocks": [
    {"len": 40, "p": [0.45, 0.3, 0.25]},
    {"len": 60, "p": [0.2, 0.5, 0.3]},
    {"len": 80, "p": [0.34, 0.33, 0.33]},
]}


def run_cli(*args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "spongedim.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def workdir(tmp_path):
    for name, doc in (("ifs.json", IFS_DOC), ("weights.json", WEIGHTS_DOC),
                      ("sequence.json", SEQ_DOC)):
        with open(tmp_path / name, "w") as fh:
            json.dump(doc, fh)
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# === basic contracts ===

def test_validate_ok(workdir):
    r = run_cli("validate", "--ifs", "ifs.json", "--out", "o", cwd=workdir)
    assert r.returncode == 0
    doc = read_json(workdir / "o" / "validate.json")
    assert doc["ok"] is True
    assert doc["schema"].startswith("spongedim.")
    assert "version" in doc
    assert os.path.exists(workdir / "o" / "manifest.json")


def test_validate_failure_exits_two(workdir):
    bad = {"dimension": 2, "maps": [
        {"a": [0.6, 0.5], "t": [0.0, 0.0]},
        {"a": [0.6, 0.5], "t": [0.2, 0.0]}]}
    with open(workdir / "bad.json", "w") as fh:
        json.dump(bad, fh)
    r = run_cli("validate", "--ifs", "bad.json", "--out", "o", cwd=workdir)
    assert r.returncode == 2
    assert "overlap" in r.stdout
    doc = read_json(workdir / "o" / "validate.json")
    assert doc["ok"] is False and doc["violations"]


def test_parse_error_exits_two(workdir):
    (workdir / "broken.json").write_text('{"dimension": 2,')
    r = run_cli("validate", "--ifs", "broken.json", "--out", "o",
                cwd=workdir)
    assert r.returncode == 2


def test_numeric_failure_exits_three(workdir):
    dead = {"type": "percolation", "p": [0.4, 0.35, 0.25],
            "alpha": [0.1, 0.1, 0.1]}
    with open(workdir / "dead.json", "w") as fh:
        json.dump(dead, fh)
    r = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "dead.json",
                "--out", "o", cwd=workdir)
    assert r.returncode == 3


def test_resource_cap_exits_four(workdir):
    r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "1.0",
                "--depth", "24", "--seed", "1", "--guard", "100000",
                "--out", "o", cwd=workdir)
    assert r.returncode == 4


def test_simulate_heap_code_depth(workdir):
    # arity-3 heap codes can reach 2**63 from level 39 on
    ok = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.3",
                 "--depth", "38", "--seed", "1", "--out", "o38", cwd=workdir)
    assert ok.returncode == 0
    deep = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.3",
                   "--depth", "39", "--seed", "1", "--out", "o39", cwd=workdir)
    assert deep.returncode == 4


def test_bad_sequence_numbers_exit_two(workdir):
    for name, text in (
            ("overflow.json", '{"blocks": [{"len": 2, "p": [1e999, 0.5, 0.5]}]}'),
            ("negative.json", '{"blocks": [{"len": 2, "p": [-0.5, 0.75, 0.75]}]}')):
        (workdir / name).write_text(text)
        r = run_cli("dim-imm", "--ifs", "ifs.json", "--sequence", name,
                    "--out", "o", cwd=workdir)
        assert r.returncode == 2
        assert "sequence" in r.stderr


def test_json_flag_prints_versioned_document(workdir):
    r = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "weights.json",
                "--json", "--out", "o", cwd=workdir)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "spongedim.dim-mm.v1"
    assert 0 < doc["value"] < 2


def test_threads_flag_does_not_change_results(workdir):
    r1 = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "weights.json",
                 "--out", "o1", cwd=workdir)
    r2 = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "weights.json",
                 "--threads", "8", "--out", "o2", cwd=workdir)
    assert r1.returncode == r2.returncode == 0
    a = read_json(workdir / "o1" / "dim-mm.json")
    b = read_json(workdir / "o2" / "dim-mm.json")
    assert a == b


# === simulation artifacts ===

def test_simulate_deterministic_artifacts(workdir):
    for out in ("s1", "s2"):
        r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.8",
                    "--depth", "7", "--seed", "42", "--out", out,
                    cwd=workdir)
        assert r.returncode == 0
    t1 = (workdir / "s1" / "tree.json").read_bytes()
    t2 = (workdir / "s2" / "tree.json").read_bytes()
    assert t1 == t2
    doc = json.loads(t1)
    assert doc["schema"] == "spongedim.tree.v1"
    assert doc["seed"] == 42 and doc["depth"] == 7


def test_boxcount_csv(workdir):
    r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.8",
                "--depth", "7", "--seed", "9", "--out", "s", cwd=workdir)
    assert r.returncode == 0
    r = run_cli("boxcount", "--ifs", "ifs.json", "--tree", "s/tree.json",
                "--scales", "2,3,4", "--out", "b", cwd=workdir)
    assert r.returncode == 0
    lines = (workdir / "b" / "boxcount.csv").read_text().splitlines()
    assert lines[0] == "N,count"
    assert len(lines) == 4
    for line in lines[1:]:
        N, count = line.split(",")
        float(N), int(count)


def test_cascade_csv(workdir):
    r = run_cli("cascade", "--weights", "weights.json", "--depth", "5",
                "--seed", "3", "--out", "c", cwd=workdir)
    assert r.returncode == 0
    lines = (workdir / "c" / "cascade.csv").read_text().splitlines()
    assert lines[0] == "word,Q"
    word, Q = lines[1].split(",")
    assert len(word) == 5
    assert float(Q) > 0


def test_dim_imm_csv(workdir):
    r = run_cli("dim-imm", "--ifs", "ifs.json", "--sequence",
                "sequence.json", "--scales", "20,40,80", "--out", "d",
                cwd=workdir)
    assert r.returncode == 0
    lines = (workdir / "d" / "dim-imm.csv").read_text().splitlines()
    assert lines[0] == "N,d,d_tilde"
    assert len(lines) == 4


# === rerun ===

def test_rerun_reproduces_outputs(workdir):
    r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.8",
                "--depth", "7", "--seed", "42", "--out", "s", cwd=workdir)
    assert r.returncode == 0
    before = {p.name: p.read_bytes()
              for p in (workdir / "s").iterdir()}
    r = run_cli("rerun", "--manifest", "s/manifest.json", cwd=workdir)
    assert r.returncode == 0
    after = {p.name: p.read_bytes() for p in (workdir / "s").iterdir()}
    assert before == after


def test_rerun_detects_tampered_input(workdir):
    r = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "weights.json",
                "--out", "m", cwd=workdir)
    assert r.returncode == 0
    doc = IFS_DOC.copy()
    doc["maps"] = list(IFS_DOC["maps"])
    doc["maps"][0] = {"a": [0.3, 0.5], "t": [0.0, 0.0]}
    with open(workdir / "ifs.json", "w") as fh:
        json.dump(doc, fh)
    r = run_cli("rerun", "--manifest", "m/manifest.json", cwd=workdir)
    assert r.returncode == 3
    assert "changed" in r.stderr
