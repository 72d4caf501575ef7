"""Command-line interface: subcommand contracts, exit codes, manifests
and exact re-execution.

Each run must leave a manifest plus versioned JSON results; rerun must
reproduce the artifacts byte for byte.
"""

import copy
import json
import math
import os
import subprocess
import sys

import click
import numpy as np
import pytest

import spongedim
from spongedim import io
from spongedim.cli import cli
from spongedim.engine import (PeriodicSpec, d_sequences,
                              three_weight_gap_sequence)
from spongedim.simulate import sample_cascade, sample_tree

from conftest import carpet

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


def child_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "spongedim.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


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


def test_parse_error_exits_two(workdir, monkeypatch, capsys):
    (workdir / "broken.json").write_text('{"dimension": 2,')
    r = run_cli("validate", "--ifs", "broken.json", "--out", "o",
                cwd=workdir)
    assert r.returncode == 2
    # numbers must be finite, resolutions also positive, a tail horizon
    # at least 1 and past the grid's last clock; --eps goes with --lengths
    # and is finite and positive; survival probabilities lie in (0, 1];
    # optimize-hausdorff draws nothing and takes no --seed.  In-process,
    # as the console script exits (see invoke)
    monkeypatch.chdir(workdir)
    seq = ("--ifs", "ifs.json", "--sequence", "sequence.json")
    schedule = ("--ifs", "ifs.json", "--lengths", "4,5,6,7")
    alphas = [(*cmd, "--alpha", a) for a in ("0", "1.5", "0.9,0.8,1.2")
              for cmd in (("simulate", "--ifs", "ifs.json", "--depth", "2"),
                          ("boxcount", "--ifs", "ifs.json", "--depth", "2",
                           "--scales", "1,2"),
                          ("dim-attractor", "--ifs", "ifs.json"),
                          ("optimize-hausdorff", "--ifs", "ifs.json"),
                          ("optimize-packing", *schedule, "--eps", "0.1",
                           "--scales", "20"))]
    for args in (("decompose", *seq, "--N", "nan"),
                 ("decompose", *seq, "--N", "-3"),
                 ("dim-imm", *seq, "--scales", "nan,100"),
                 ("dim-imm", *seq, "--scales", "20,0"),
                 ("dim-imm", *seq, "--horizon", "-5"),
                 ("boxcount", "--ifs", "ifs.json", "--alpha", "0.8",
                  "--depth", "3", "--scales", "nan,2"),
                 ("optimize-packing", "--ifs", "ifs.json", "--alpha", "1",
                  "--lengths", "4,5,inf", "--eps", "0.1", "--scales", "20"),
                 # a law that does not sum to 1, and one letter too many
                 ("coding", "--ifs", "ifs.json", "--p", "0.5,0.3,0.1"),
                 ("coding", "--ifs", "ifs.json", "--p", "0.25,0.25,0.25,0.25"),
                 ("optimize-hausdorff", "--ifs", "ifs.json", "--eps", "0.1"),
                 *[("optimize-hausdorff", *schedule, "--eps", eps)
                   for eps in ("-1", "0", "nan", "inf")],
                 ("optimize-packing", *schedule, "--alpha", "1", "--eps", "-1",
                  "--scales", "20"),
                 ("optimize-hausdorff", "--ifs", "ifs.json", "--seed", "1"),
                 ("dim-imm", *seq, "--scales", "20,40", "--horizon", "5"),
                 *alphas):
        assert invoke([*args, "--out", "o"]) == 2, args
    assert not (workdir / "o").exists()
    # the message names --horizon and the least horizon that works
    capsys.readouterr()
    dim_imm = ["dim-imm", *seq, "--scales", "20,40", "--out", "o", "--horizon"]
    assert invoke(dim_imm + ["57"]) == 2
    assert "--horizon must be at least 58" in capsys.readouterr().err
    assert invoke(dim_imm + ["58"]) == 0


# negative sizes, and counts below one, exit 2 before anything is written
@pytest.mark.parametrize("args", [
    ("simulate", "--ifs", "ifs.json", "--alpha", "0.9", "--depth", "-1"),
    ("boxcount", "--ifs", "ifs.json", "--alpha", "0.9", "--depth", "-2",
     "--scales", "2,3"),
    ("cascade", "--weights", "weights.json", "--depth", "-1"),
    ("local-dim", "--ifs", "ifs.json", "--weights", "weights.json",
     "--depth", "12", "--points", "0"),
    ("local-dim", "--ifs", "ifs.json", "--weights", "weights.json",
     "--depth", "0"),
    *[("simulate", "--ifs", "ifs.json", "--alpha", "0.9", "--depth", "3",
       "--guard", guard) for guard in ("-5", "0")],
], ids=["simulate-depth", "boxcount-depth", "cascade-depth",
        "local-dim-points", "local-dim-depth", "simulate-guard", "simulate-guard-0"])
def test_bad_sizes_exit_two_before_writing(workdir, args):
    r = run_cli(*args, "--out", "o", cwd=workdir)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not os.path.exists(workdir / "o")


def test_near_tie_keeps_two_clock_groups(workdir):
    # a Baranski carpet whose exponents differ by 8.1e-4 at p
    baranski = {"dimension": 2, "maps": [
        {"a": [0.5, 1 / 3], "t": [0.0, 0.0]},
        {"a": [1 / 3, 0.5], "t": [2 / 3, 0.5]}]}
    with open(workdir / "baranski.json", "w") as fh:
        json.dump(baranski, fh)
    with open(workdir / "tie.json", "w") as fh:
        json.dump({"type": "deterministic", "p": [0.501, 0.499]}, fh)
    r = run_cli("coding", "--ifs", "baranski.json", "--p", "0.501,0.499",
                "--out", "c", cwd=workdir)
    assert r.returncode == 0
    doc = read_json(workdir / "c" / "coding.json")
    assert doc["axis_groups"] == [[2], [1]] and doc["levels"] == 2
    assert "reference_N" not in doc
    r = run_cli("dim-mm", "--ifs", "baranski.json", "--weights", "tie.json",
                "--out", "m", cwd=workdir)
    assert r.returncode == 0
    value = read_json(workdir / "m" / "dim-mm.json")["value"]
    assert abs(value - 0.7740537100424525) <= 1e-12


def test_numeric_failure_exits_three(workdir):
    dead = {"type": "percolation", "p": [0.4, 0.35, 0.25],
            "alpha": [0.1, 0.1, 0.1]}
    with open(workdir / "dead.json", "w") as fh:
        json.dump(dead, fh)
    r = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "dead.json",
                "--out", "o", cwd=workdir)
    assert r.returncode == 3
    assert not (workdir / "o").exists()
    # a 2x3 carpet whose x-projections overlap is not a good sponge
    overlap = {"dimension": 2, "maps": [
        {"a": [0.5, 1 / 3], "t": [0.0, 0.0]},
        {"a": [0.5, 1 / 3], "t": [0.25, 1 / 3]},
        {"a": [0.5, 1 / 3], "t": [0.5, 2 / 3]}]}
    with open(workdir / "overlap.json", "w") as fh:
        json.dump(overlap, fh)
    for args in (("coding",), ("dim-attractor", "--alpha", "0.9")):
        r = run_cli(*args, "--ifs", "overlap.json", "--out", "o", cwd=workdir)
        assert r.returncode == 3, args
        assert "Traceback" not in r.stderr


def test_resource_cap_exits_four(workdir):
    r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "1.0",
                "--depth", "24", "--seed", "1", "--guard", "100000",
                "--out", "o", cwd=workdir)
    assert r.returncode == 4
    assert not (workdir / "o").exists()


def test_simulate_heap_code_depth(workdir):
    # arity-3 heap codes can reach 2**63 from level 39 on
    ok = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.3",
                 "--depth", "38", "--seed", "1", "--out", "o38", cwd=workdir)
    assert ok.returncode == 0
    deep = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.3",
                   "--depth", "39", "--seed", "1", "--out", "o39", cwd=workdir)
    assert deep.returncode == 4


def test_bad_sequence_numbers_exit_two(workdir):
    p = '"p": [0.5, 0.25, 0.25]'
    for name, text in (
            ("overflow.json", '{"blocks": [{"len": 2, "p": [1e999, 0.5, 0.5]}]}'),
            ("negative.json", '{"blocks": [{"len": 2, "p": [-0.5, 0.75, 0.75]}]}'),
            ("fraction.json", '{"blocks": [{"len": 2.7, %s}]}' % p),
            ("boolean.json", '{"blocks": [{"len": true, %s}]}' % p),
            ("string.json", '{"blocks": [{"len": "3", %s}]}' % p)):
        (workdir / name).write_text(text)
        r = run_cli("dim-imm", "--ifs", "ifs.json", "--sequence", name,
                    "--out", "o", cwd=workdir)
        assert r.returncode == 2
        assert "sequence" in r.stderr


def test_integers_past_the_float_range_exit_two(workdir):
    # an integer past the float range overflows where the loader converts
    # it, still invalid input.  So does a value of the wrong JSON type
    # where the loader reads it.
    big = "1" + "0" * 400
    cases = (
        ("sequence", '{"blocks": [{"len": 2, "p": [%s, 0.5, 0.5]}]}' % big,
         ("dim-imm", "--ifs", "ifs.json")),
        ("weights", '{"type": "percolation", "p": [0.4, 0.35, 0.25], '
                    '"alpha": [%s, 0.8, 0.85]}' % big,
         ("dim-mm", "--ifs", "ifs.json")),
        ("ifs", '{"dimension": 2, "maps": [{"a": [%s, 0.5], "t": [0, 0]}, '
                '{"a": [0.3, 0.5], "t": [0.5, 0]}]}' % big, ("validate",)),
        ("periodic", '{"lambda": %s, "knots": [{"t": 1.0, '
                     '"p": [0.5, 0.25, 0.25]}]}' % big,
         ("dim-periodic", "--ifs", "ifs.json")),
        ("ifs", '{"dimension": 2, "maps": 5}', ("validate",)),
        ("ifs", '{"dimension": 2, "maps": [{"a": 5, "t": [0, 0]}]}', ("validate",)),
        ("periodic", '{"lambda": 4.0, "knots": 5}', ("dim-periodic", "--ifs", "ifs.json")),
        ("sequence", '{"blocks": [{"len": 1, "p": {"a": 1}}]}',
         ("dim-imm", "--ifs", "ifs.json")),
        ("weights", '{"type": "deterministic", "p": ["0.5", "0.25", "0.25"]}',
         ("dim-mm", "--ifs", "ifs.json")))
    for j, (flag, text, args) in enumerate(cases):
        name = "bad%d-%s.json" % (j, flag)
        (workdir / name).write_text(text)
        r = run_cli(*args, "--" + flag, name, "--out", "o", cwd=workdir)
        assert r.returncode == 2, (args, r.stderr)
        assert name in r.stderr and "Traceback" not in r.stderr, r.stderr
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("flag", ["ifs", "weights", "periodic", "tree"])
def test_float_literals_past_the_double_range_exit_two(workdir, flag):
    # a float literal that overflows parses to an infinity, which the
    # loader of its field refuses as non-finite where it converts it
    tree = io.tree_to_dict(sample_tree(3, [1.0] * 3, depth=2), {})
    docs = {
        "ifs": ('{"dimension": 2, "maps": [{"a": [1e999, 0.5], "t": [0, 0]}]}',
                ("validate",)),
        "weights": ('{"type": "percolation", "p": [0.4, 0.35, 0.25], '
                    '"alpha": [1e999, 0.8, 0.85]}', ("dim-mm", "--ifs", "ifs.json")),
        "periodic": ('{"lambda": 1e999, "knots": [{"t": 1.0, "p": [0.5, 0.25, 0.25]}]}',
                     ("dim-periodic", "--ifs", "ifs.json")),
        "tree": (json.dumps(tree).replace('"seed": 0', '"seed": 1e999'),
                 ("boxcount", "--ifs", "ifs.json", "--scales", "2")),
    }
    text, args = docs[flag]
    assert "1e999" in text
    name = "huge-%s.json" % flag
    (workdir / name).write_text(text)
    r = run_cli(*args, "--" + flag, name, "--out", "o", cwd=workdir)
    assert r.returncode == 2, r.stderr
    assert name in r.stderr and "non-finite" in r.stderr, r.stderr
    assert "Traceback" not in r.stderr
    assert not (workdir / "o").exists()


def test_schedule_searches_check_their_bounds_before_computing(workdir, monkeypatch,
                                                               capsys):
    # lengths that are no type-ell schedule, a drift at or past the top
    # entropy and a schedule shorter than the scales read are bad input
    monkeypatch.chdir(workdir)
    hausdorff = ("optimize-hausdorff", "--ifs", "ifs.json")
    packing = ("optimize-packing", "--ifs", "ifs.json", "--alpha", "0.9")
    for args, why in (
            ((*hausdorff, "--lengths", "0,5,6", "--eps", "0.1"), "positive"),
            ((*hausdorff, "--lengths", "6,5,4", "--eps", "0.1"), "not > previous"),
            ((*hausdorff, "--lengths", "4,5,6,7", "--eps", "5"), "top entropy"),
            ((*hausdorff, "--alpha", "0.9", "--lengths", "4,5,6,7", "--eps", "0.994"),
             "top entropy"),
            ((*packing, "--lengths", "4,5,6,7", "--eps", "5", "--scales", "20"),
             "cover 22 rows"),
            ((*packing, "--lengths", "4,5,6,7,12", "--eps", "0.1", "--scales", "20"),
             "exceeds")):
        assert invoke([*args, "--out", "o"]) == 2, args
        assert why in capsys.readouterr().err, args
    assert not (workdir / "o").exists()
    # a subcritical survival vector stays a degenerate model
    assert invoke([*hausdorff, "--alpha", "0.3", "--lengths", "4,5,6,7",
                   "--eps", "0.1", "--out", "o"]) == 3
    assert "degenerate" in capsys.readouterr().err


MANIFEST_DOC = {"schema": "spongedim.manifest.v1", "version": io.VERSION,
                "command": "validate", "params": {"ifs": "ifs.json", "out": "o"},
                "seed": None, "inputs": {"ifs.json": "HASH"}, "outputs": {}}
BAD_MANIFESTS = {
    "int-hash.json": json.dumps(MANIFEST_DOC).replace('"HASH"', "5"),
    "huge-hash.json": json.dumps(MANIFEST_DOC).replace('"HASH"', "1e999"),
    "list-inputs.json": json.dumps(dict(MANIFEST_DOC, inputs=[1, 2])),
    "no-params.json": json.dumps({k: v for k, v in MANIFEST_DOC.items() if k != "params"}),
    # no command writes a rerun manifest, and this one would replay itself
    "self-rerun.json": json.dumps(dict(MANIFEST_DOC, command="rerun",
                                       params={"manifest": "self-rerun.json"})),
}
# grid carpets of four and of two maps, for a tree of arity 3
FOUR_MAPS = {"dimension": 2, "maps": [{"a": [0.5, 0.5], "t": t} for t in
                                      ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5])]}
TWO_MAPS = {"dimension": 2, "maps": [{"a": [0.5, 0.5], "t": t} for t in
                                     ([0.0, 0.0], [0.5, 0.5])]}
# a Barański carpet: its linear parts differ
BARANSKI = {"dimension": 2, "maps": [{"a": [1 / 2, 1 / 3], "t": [0.0, 0.0]},
                                     {"a": [1 / 3, 1 / 2], "t": [2 / 3, 1 / 2]}]}
HAUSDORFF = ("optimize-hausdorff", "--ifs", "ifs.json")
PACKING = ("optimize-packing", "--ifs", "ifs.json", "--scales", "20")
DEEP_BOXCOUNT = ("boxcount", "--ifs", "ifs.json", "--alpha", "0.8", "--depth", "39")
SEQ_FILE = ("dim-imm", "--ifs", "ifs.json", "--sequence")
LOCAL_DIM = ("local-dim", "--ifs", "ifs.json", "--weights", "weights.json")


# each input rule has one owner, a library function that raises InputError
# (exit 2) before a subcritical alpha raises DegenerateError (exit 3); the
# boxcount cases would exit 4 in sampling, after their window check.  A
# malformed manifest exits 2 and names the file; a local-dimension sample
# past the memory guard exits 4 before any draw
@pytest.mark.parametrize("args, code", [
    ((*HAUSDORFF, "--lengths", "0,5,6", "--eps", "0.1"), 2),
    ((*HAUSDORFF, "--lengths", "6,5,4", "--eps", "0.1"), 2),
    *[((*HAUSDORFF, "--lengths", "4,5,6,7", "--eps", eps), 2)
      for eps in ("5", "inf", "nan", "-1")],
    ((*HAUSDORFF, "--alpha", "0.3", "--lengths", "6,5", "--eps", "0.1"), 2),
    ((*HAUSDORFF, "--lengths", "4.5,5,6", "--eps", "0.1"), 2),
    ((*HAUSDORFF, "--alpha", "0.3", "--lengths", "4,5,6,7", "--eps", "0.1"), 3),
    ((*PACKING, "--alpha", "0.9", "--lengths", "4,5,6,7", "--eps", "5"), 2),
    ((*PACKING, "--alpha", "0.9", "--lengths", "4,5,6,7,12", "--eps", "0.1"), 2),
    *[((*PACKING, "--alpha", "0.9", "--lengths", "20,40,80", "--eps", eps), 2)
      for eps in ("inf", "0")],
    ((*PACKING, "--alpha", "0.3", "--lengths", "4,5,6,7", "--eps", "0.1"), 2),
    ((*PACKING, "--alpha", "0.3", "--lengths", "20,40,80", "--eps", "0.1"), 3),
    *[((*DEEP_BOXCOUNT, "--scales", "1,2,3,4", "--window", w), 2)
      for w in ("3,1", "0,1,2", "0.5,3")],
    # the default window of one scale holds fewer than two
    *[(("boxcount", "--ifs", "ifs.json", "--alpha", "0.8", "--depth", depth,
        "--scales", "2"), 2) for depth in ("3", "39")],
    # one letter per map, and a depth that covers the slowest clock
    (("local-dim", "--ifs", "ifs.json", "--weights", "two-letters.json",
      "--depth", "5"), 2),
    ((*LOCAL_DIM, "--depth", "3", "--scales", "50"), 2),
    # refused before its clocks, whose search in steps of one generation
    # would not end at these scales
    ((*LOCAL_DIM, "--depth", "12", "--scales", "1e30,2e30"), 2),
    # scales.resolutions: finite and positive scales; a local-dimension fit
    # needs two distinct box sizes
    *[((*LOCAL_DIM, "--depth", "12", "--scales", scales), 2)
      for scales in ("-5,-2", "3", "0.5,0.5")],
    *[((*LOCAL_DIM, "--depth", depth), 2) for depth in ("1", "2")],
    ((*LOCAL_DIM, "--depth", "1000000000", "--points", "100"), 4),
    ((*LOCAL_DIM, "--depth", "1000000000000000000"), 4),
    # the weighted pressure needs equal linear parts
    (("dim-attractor", "--ifs", "baranski.json", "--alpha", "0.9"), 2),
    # a scale past the schedule's horizon
    *[((*SEQ_FILE, "sequence.json", "--scales", scales), 2)
      for scales in ("1e9", "20,1e6")],
    (("decompose", "--ifs", "ifs.json", "--sequence", "sequence.json",
      "--N", "1e9"), 2),
    *[(("rerun", "--manifest", name), 2) for name in BAD_MANIFESTS],
    (("cascade", "--sequence", "sequence.json", "--depth", "500"), 2),
    (("dim-mm", "--ifs", "ifs.json", "--weights", "two-letters.json"), 2),
    ((*SEQ_FILE, "fraction.json"), 2),
    ((*SEQ_FILE, "zero.json"), 2),
    ((*SEQ_FILE, "sequence.json", "--horizon", "5"), 2),
    # one letter per map: a schedule or periodic law, and a counted tree
    ((*SEQ_FILE, "two-letter-seq.json"), 2),
    (("decompose", "--ifs", "ifs.json", "--sequence", "two-letter-seq.json",
      "--N", "20"), 2),
    (("dim-periodic", "--ifs", "ifs.json", "--periodic", "two-letter-periodic.json"), 2),
    *[(("boxcount", "--ifs", name, "--tree", "tree.json", "--scales", "1,2"), 2)
      for name in ("four-maps.json", "two-maps.json")],
], ids=lambda x: str(x) if isinstance(x, int)
   else " ".join(a for a in x if a not in ("--ifs", "ifs.json")))
def test_exit_code_matrix(workdir, monkeypatch, capsys, args, code):
    monkeypatch.chdir(workdir)
    p = [0.5, 0.25, 0.25]
    # a 3-ary tree as simulate writes it on the 3x2 carpet
    tree = io.tree_to_dict(sample_tree(3, [0.9] * 3, depth=4, seed=1),
                           {"type": "percolation-tree", "arity": 3, "alpha": [0.9] * 3})
    for name, doc in (("two-letters.json", {"type": "deterministic", "p": [0.5, 0.5]}),
                      ("fraction.json", {"blocks": [{"len": 2.7, "p": p}]}),
                      ("zero.json", {"blocks": [{"len": 0, "p": p}]}),
                      ("two-letter-seq.json", {"blocks": [{"len": 100, "p": [0.5, 0.5]}]}),
                      ("two-letter-periodic.json",
                       {"lambda": 4.0, "knots": [{"t": 1.0, "p": [0.5, 0.5]}]}),
                      ("four-maps.json", FOUR_MAPS), ("two-maps.json", TWO_MAPS),
                      ("baranski.json", BARANSKI), ("tree.json", tree)):
        with open(name, "w") as fh:
            json.dump(doc, fh)
    for name, text in BAD_MANIFESTS.items():
        (workdir / name).write_text(text)
    # rerun takes no --out: its manifest's params name the directory
    assert invoke([*args] if args[0] == "rerun" else [*args, "--out", "o"]) == code
    err = capsys.readouterr().err
    assert ("degenerate" if code == 3 else "spongedim:") in err
    assert args[0] != "rerun" or args[-1] in err
    assert not (workdir / "o").exists()


# the default grid at depth 1 is eight zero scales, which the user never
# gave: the message names the depth and says the scales are the defaults
@pytest.mark.parametrize("depth", ["1", "2"])
def test_local_dim_without_scales_names_the_defaults(workdir, monkeypatch, capsys,
                                                     depth):
    monkeypatch.chdir(workdir)
    assert invoke([*LOCAL_DIM, "--depth", depth, "--out", "o"]) == 2
    assert ("depth %s and the default scales give one box size" % depth
            in capsys.readouterr().err)


def test_json_flag_prints_versioned_document(workdir):
    r = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "weights.json",
                "--json", "--out", "o", cwd=workdir)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "spongedim.dim-mm.v1"
    assert 0 < doc["value"] < 2


def test_threads_flag_is_rejected(workdir):
    r = run_cli("dim-mm", "--ifs", "ifs.json", "--weights", "weights.json",
                "--threads", "8", "--out", "o", cwd=workdir)
    assert r.returncode == 2
    assert "--threads" in r.stderr


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
    # box counts take any finite N: at N = 0 the grid is one box
    r = run_cli("boxcount", "--ifs", "ifs.json", "--tree", "s/tree.json",
                "--scales", "0,2", "--out", "b0", cwd=workdir)
    assert r.returncode == 0
    lines = (workdir / "b0" / "boxcount.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "1"


def test_boxcount_window_is_checked_before_sampling(workdir):
    # depth 39 would exit 4 in sampling: a bad window exits 2 before it
    for window in ("3,1", "0,100", "-1,2", "1,2", "0,1,2", "0.5,3"):
        r = run_cli("boxcount", "--ifs", "ifs.json", "--alpha", "0.8",
                    "--depth", "39", "--scales", "1,2,3,4",
                    "--window", window, "--out", "b", cwd=workdir)
        assert r.returncode == 2, (window, r.stderr)
        assert "Traceback" not in r.stderr
    assert not (workdir / "b").exists()
    r = run_cli("boxcount", "--ifs", "ifs.json", "--alpha", "0.8",
                "--depth", "5", "--scales", "1,2,3,4", "--window", "1,4",
                "--out", "b", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert read_json(workdir / "b" / "boxcount.json")["window"] == [1, 4]


def test_tree_dump_is_compact_and_indented_dumps_still_load(workdir):
    r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.8",
                "--depth", "7", "--seed", "5", "--out", "s", cwd=workdir)
    assert r.returncode == 0
    ifs = io.ifs_from_dict(IFS_DOC)
    tree = sample_tree(ifs, np.full(3, 0.8), depth=7, seed=5)
    doc = io.tree_to_dict(tree, {"type": "percolation-tree", "arity": 3,
                                 "alpha": [0.8] * 3})
    raw = (workdir / "s" / "tree.json").read_text()
    assert raw == io.canonical_json(doc) + "\n"
    # indented dumps, the earlier format, still load
    (workdir / "old.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for path, out in (("s/tree.json", "b-new"), ("old.json", "b-old")):
        r = run_cli("boxcount", "--ifs", "ifs.json", "--tree", path,
                    "--scales", "1.5,2.5,3.5", "--out", out, cwd=workdir)
        assert r.returncode == 0, r.stderr
    assert ((workdir / "b-old" / "boxcount.csv").read_bytes()
            == (workdir / "b-new" / "boxcount.csv").read_bytes())
    old = io.tree_from_dict(io.load_json(str(workdir / "old.json")))
    assert all(np.array_equal(a, b) for a, b in zip(old.levels, tree.levels))


def test_boxcount_tree_excludes_sampling_options(workdir):
    r = run_cli("simulate", "--ifs", "ifs.json", "--alpha", "0.8",
                "--depth", "4", "--seed", "1", "--out", "s", cwd=workdir)
    assert r.returncode == 0
    for extra in (["--alpha", "0.3"], ["--depth", "9"],
                  ["--alpha", "0.3", "--depth", "9"], ["--seed", "5"],
                  ["--seed", "0"]):
        r = run_cli("boxcount", "--ifs", "ifs.json", "--tree", "s/tree.json",
                    *extra, "--scales", "2", "--out", "b", cwd=workdir)
        assert r.returncode == 2, (extra, r.stderr)
        assert "mutually exclusive" in r.stderr
    assert not (workdir / "b").exists()
    # a loaded tree uses no randomness: its manifest records no seed
    r = run_cli("boxcount", "--ifs", "ifs.json", "--tree", "s/tree.json",
                "--scales", "2,3", "--out", "b", cwd=workdir)
    assert r.returncode == 0, r.stderr
    man = read_json(workdir / "b" / "manifest.json")
    assert man["seed"] is None and man["params"]["seed"] is None
    before = {p.name: p.read_bytes() for p in (workdir / "b").iterdir()}
    r = run_cli("rerun", "--manifest", "b/manifest.json", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert {p.name: p.read_bytes() for p in (workdir / "b").iterdir()} == before
    # sampling without --seed uses and records seed 0
    for out, extra in (("d", []), ("z", ["--seed", "0"])):
        r = run_cli("boxcount", "--ifs", "ifs.json", "--alpha", "0.8",
                    "--depth", "4", *extra, "--scales", "2,3", "--out", out,
                    cwd=workdir)
        assert r.returncode == 0, r.stderr
        man = read_json(workdir / out / "manifest.json")
        assert man["seed"] == 0 and man["params"]["seed"] == 0
    assert ((workdir / "d" / "boxcount.csv").read_bytes()
            == (workdir / "z" / "boxcount.csv").read_bytes())


def test_boxcount_past_int64_exits_four(workdir):
    # at N = 40 the box total passes 2**63; at N = 50 the indices do;
    # past N of about 709.78 e^N itself leaves the float range.  A second
    # scale gives the fit window its two scales, which is checked first
    for N in ("40", "50", "800", "1e6"):
        r = run_cli("boxcount", "--ifs", "ifs.json", "--alpha", "1",
                    "--depth", "3", "--scales", "2," + N, "--out", "o", cwd=workdir)
        assert r.returncode == 4, (N, r.stderr)
        assert "Traceback" not in r.stderr


def test_malformed_tree_dump_exits_two(workdir):
    good = io.tree_to_dict(sample_tree(3, [1.0] * 3, depth=2), {})
    assert good["levels"] == [[[1, 1]], [[4, 3]], [[13, 9]]]
    # (level, its runs, what the message names)
    cases = {
        "orphans": (1, [[4, 1]], "parent"),
        "duplicates": (2, [[13, 9], [21, 1]], "strictly increasing"),
        "decreasing": (2, [[16, 6], [13, 3]], "strictly increasing"),
        "outside heap range": (2, [[13, 9], [40, 1]], "heap range"),
        "negative start": (1, [[-1, 1]], "heap range"),
        "start past 2**64": (1, [[2 ** 64, 1]], "integers"),
        "boolean start": (0, [[True, 1]], "integers"),
    }
    for name, (level, runs, why) in cases.items():
        doc = copy.deepcopy(good)
        doc["levels"][level] = runs
        doc["counts"][level] = sum(length for _, length in runs)
        path = "bad-%s.json" % name.replace(" ", "-")
        with open(workdir / path, "w") as fh:
            json.dump(doc, fh)
        r = run_cli("boxcount", "--ifs", "ifs.json", "--tree", path,
                    "--scales", "2", "--out", "b", cwd=workdir)
        assert r.returncode == 2, (name, r.stderr)
        assert why in r.stderr and "Traceback" not in r.stderr, (name, r.stderr)


def test_atom_block_schedule_from_file(workdir):
    # criterion 5's three-weight gap schedule, written as atom blocks
    ifs = carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])
    sched = three_weight_gap_sequence(ifs, np.array((0.4, 0.35, 0.25)),
                                      H1=0.82, H3=-0.85, horizon=3000)
    doc = io.sequence_to_dict(sched.seq)
    assert any("atoms" in b for b in doc["blocks"]) and "alpha" not in doc
    with open(workdir / "gap.json", "w") as fh:
        json.dump(doc, fh)
    rnd = sched.rounds[1]
    N = [rnd["M2"] * math.log(2.0) * f for f in (0.8, 0.95, 1.05)]
    r = run_cli("dim-imm", "--ifs", "ifs.json", "--sequence", "gap.json",
                "--scales", ",".join(repr(x) for x in N), "--out", "d",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    rows = (workdir / "d" / "dim-imm.csv").read_text().splitlines()[1:]
    for N_j, row in zip(N, rows):
        want = d_sequences(sched.seq, ifs, N_j)
        _, d, d_tilde = (float(x) for x in row.split(","))
        assert (d, d_tilde) == (want.d, want.d_tilde)
    assert any(float(row.split(",")[1]) < float(row.split(",")[2]) - 1e-3
               for row in rows)
    r = run_cli("cascade", "--sequence", "gap.json", "--depth", "6",
                "--seed", "3", "--out", "c", cwd=workdir)
    assert r.returncode == 0, r.stderr
    Y = read_json(workdir / "c" / "cascade.json")["Y"]
    assert Y == sample_cascade(sched.seq, 6, seed=3).Y.tolist()


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


# === the manifest rule, in-process ===

# name -> (argv, params, seed, inputs, outputs in --out) of the manifest:
# params are the given options but --json under their flag names (with
# "out", the name, added below) and the effective seed of commands with
# --seed; the inputs are the given input files.  Pinned as the
# hand-written manifests of each command recorded them.
I, W, S = ("--ifs", "ifs.json"), ("--weights", "weights.json"), \
    ("--sequence", "sequence.json")
IFS_P, SEQ_P = {"ifs": "ifs.json"}, {"sequence": "sequence.json"}
SCHEDULE = ("--alpha", "0.9", "--lengths", "20,40,80", "--eps", "0.1")
SCHEDULE_P = {"alpha": "0.9", "lengths": "20,40,80", "eps": 0.1}
MANIFEST_CASES = {
    "validate": (["validate", *I], IFS_P, None, ["ifs.json"], ["validate.json"]),
    "classify": (["classify", *I], IFS_P, None, ["ifs.json"], ["classify.json"]),
    "coding": (["coding", *I], IFS_P, None, ["ifs.json"], ["coding.json"]),
    "coding-p": (["coding", *I, "--p", "0.4,0.35,0.25"],
                 {**IFS_P, "p": "0.4,0.35,0.25"}, None, ["ifs.json"],
                 ["coding.json"]),
    "decompose": (["decompose", *I, *S, "--N", "20"],
                  {**IFS_P, **SEQ_P, "N": 20.0}, None,
                  ["ifs.json", "sequence.json"], ["decompose.json"]),
    "dim-mm": (["dim-mm", *I, *W, "--json"], {**IFS_P, "weights": "weights.json"},
               None, ["ifs.json", "weights.json"], ["dim-mm.json"]),
    "dim-imm": (["dim-imm", *I, *S], {**IFS_P, **SEQ_P}, None,
                ["ifs.json", "sequence.json"], ["dim-imm.csv", "dim-imm.json"]),
    "dim-imm-opts": (["dim-imm", *I, *S, "--scales", "20,40", "--horizon", "150"],
                     {**IFS_P, **SEQ_P, "scales": "20,40", "horizon": 150}, None,
                     ["ifs.json", "sequence.json"], ["dim-imm.csv", "dim-imm.json"]),
    "dim-periodic": (["dim-periodic", *I, "--periodic", "periodic.json"],
                     {**IFS_P, "periodic": "periodic.json"}, None,
                     ["ifs.json", "periodic.json"],
                     ["dim-periodic.csv", "dim-periodic.json"]),
    "hausdorff": (["optimize-hausdorff", *I], IFS_P, None, ["ifs.json"],
                  ["optimize-hausdorff.json"]),
    "hausdorff-schedule": (["optimize-hausdorff", *I, *SCHEDULE],
                           {**IFS_P, **SCHEDULE_P}, None, ["ifs.json"],
                           ["optimize-hausdorff.json"]),
    "packing": (["optimize-packing", *I, *SCHEDULE, "--scales", "20,40"],
                {**IFS_P, **SCHEDULE_P, "scales": "20,40"}, None, ["ifs.json"],
                ["optimize-packing.json"]),
    "attractor": (["dim-attractor", *I, "--alpha", "0.9,0.8,0.85"],
                  {**IFS_P, "alpha": "0.9,0.8,0.85"}, None, ["ifs.json"],
                  ["dim-attractor.json"]),
    "simulate": (["simulate", *I, "--alpha", "0.8", "--depth", "6", "--seed", "2"],
                 {**IFS_P, "alpha": "0.8", "depth": 6, "seed": 2,
                  "guard": 10 ** 8}, 2, ["ifs.json"], ["simulate.json", "tree.json"]),
    "simulate-conditioned": (["simulate", *I, "--alpha", "0.5", "--depth", "5",
                              "--conditioned", "--guard", "100000"],
                             {**IFS_P, "alpha": "0.5", "depth": 5, "seed": 0,
                              "conditioned": True, "guard": 100000}, 0,
                             ["ifs.json"], ["simulate.json", "tree.json"]),
    "boxcount-tree": (["boxcount", *I, "--tree", "simulate/tree.json",
                       "--scales", "1,2,3"],
                      {**IFS_P, "tree": "simulate/tree.json", "scales": "1,2,3",
                       "seed": None}, None, ["ifs.json", "simulate/tree.json"],
                      ["boxcount.csv", "boxcount.json"]),
    "boxcount-window": (["boxcount", *I, "--alpha", "0.8", "--depth", "5",
                         "--scales", "1,2,3,4", "--window", "1,4"],
                        {**IFS_P, "alpha": "0.8", "depth": 5, "scales": "1,2,3,4",
                         "window": "1,4", "seed": 0}, 0, ["ifs.json"],
                        ["boxcount.csv", "boxcount.json"]),
    "cascade-weights": (["cascade", *W, "--depth", "5", "--seed", "3"],
                        {"weights": "weights.json", "depth": 5, "seed": 3}, 3,
                        ["weights.json"], ["cascade.csv", "cascade.json"]),
    "cascade-sequence": (["cascade", *S, "--depth", "5"],
                         {**SEQ_P, "depth": 5, "seed": 0}, 0, ["sequence.json"],
                         ["cascade.csv", "cascade.json"]),
    "local-dim": (["local-dim", *I, *W, "--depth", "5", "--points", "10",
                   "--scales", "1,2,3", "--seed", "7"],
                  {**IFS_P, "weights": "weights.json", "depth": 5, "points": 10,
                   "scales": "1,2,3", "seed": 7}, 7, ["ifs.json", "weights.json"],
                  ["local-dim.json"]),
    "gap-demo": (["gap-demo"], {}, None, [],
                 ["gap-demo.json", "gap-ifs.json", "gap-periodic.json"]),
}
INPUT_FLAGS = {"--ifs", "--weights", "--sequence", "--periodic", "--tree"}
SIZE_FLAGS = {"--depth", "--points", "--horizon"}


def invoke(argv):
    """Exit code of one in-process run, as the console script returns it."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    except click.ClickException as exc:
        return exc.exit_code
    return 0


@pytest.mark.parametrize("name", list(MANIFEST_CASES))
def test_manifest_records_the_given_options(workdir, monkeypatch, name):
    argv, params, seed, inputs, outputs = MANIFEST_CASES[name]
    monkeypatch.chdir(workdir)
    pspec = PeriodicSpec(4.0, [1.0, 2.0, 3.0], [[0.45, 0.45, 0.10],
                                                [0.25, 0.25, 0.50],
                                                [0.45, 0.45, 0.10]],
                         alpha=[0.85] * 3)
    io.write_json("periodic.json", io.periodic_to_dict(pspec))
    (workdir / "broken.json").write_text('{"dimension": 2,')
    # a broken input file, and a bad size, exit 2 and write nothing
    for flags, value in ((INPUT_FLAGS, "broken.json"), (SIZE_FLAGS, "-1")):
        at = [i for i, arg in enumerate(argv) if arg in flags]
        if at:
            bad = argv[:at[0] + 1] + [value] + argv[at[0] + 2:]
            assert invoke(bad + ["--out", "failed"]) == 2, bad
            assert not (workdir / "failed").exists(), bad
    if "--tree" in argv:
        assert invoke(MANIFEST_CASES["simulate"][0] + ["--out", "simulate"]) == 0
    assert invoke(argv + ["--out", name]) == 0
    man = read_json(workdir / name / "manifest.json")
    assert man["command"] == argv[0]
    assert man["params"] == {**params, "out": name}
    assert man["seed"] == seed
    assert sorted(man["inputs"]) == inputs
    assert sorted(man["outputs"]) == [os.path.join(name, f) for f in outputs]
    before = {p.name: p.read_bytes() for p in (workdir / name).iterdir()}
    assert sorted(before) == sorted(outputs + ["manifest.json"])
    assert invoke(["rerun", "--manifest", os.path.join(name, "manifest.json")]) == 0
    assert {p.name: p.read_bytes() for p in (workdir / name).iterdir()} == before


# === cold start ===

# Runs each argv through the CLI in one fresh interpreter and prints the
# scipy modules loaded after `import spongedim`, after `import spongedim.cli`
# and after each command.  The test process itself has scipy loaded (the
# oracles import it), so only a child can see what the package loads.
SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import spongedim
seen = [scipy_modules()]
from spongedim.cli import cli
seen.append(scipy_modules())
for argv in json.loads(sys.argv[1]):
    cli.main(args=argv, standalone_mode=False)
    seen.append(scipy_modules())
print(json.dumps(seen))
"""


def scipy_loaded(cwd, *argvs, preload=False):
    code = ("import scipy.optimize, scipy.special\n" if preload else "") + SCIPY_PROBE
    r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                       capture_output=True, text=True, cwd=cwd, env=child_env())
    assert r.returncode == 0, r.stderr
    return [set(mods) for mods in json.loads(r.stdout.splitlines()[-1])]


def test_sampling_commands_load_no_scipy(workdir):
    seen = scipy_loaded(
        workdir,
        ["validate", "--ifs", "ifs.json", "--out", "v"],
        ["simulate", "--ifs", "ifs.json", "--alpha", "0.8", "--depth", "6",
         "--seed", "2", "--out", "s"],
        ["boxcount", "--ifs", "ifs.json", "--tree", "s/tree.json",
         "--scales", "2,3", "--out", "b"],
        ["cascade", "--weights", "weights.json", "--depth", "5", "--out", "c"],
        ["coding", "--ifs", "ifs.json", "--out", "k"])
    # after the two imports and after each of the five commands
    assert seen == [set()] * 7
    for out, name in (("s", "tree.json"), ("b", "boxcount.csv"),
                      ("c", "cascade.csv")):
        assert (workdir / out / name).exists()


def test_formula_commands_load_scipy_special_only(workdir):
    pspec = PeriodicSpec(4.0, [1.0, 2.0, 3.0], [[0.45, 0.45, 0.10],
                                                [0.25, 0.25, 0.50],
                                                [0.45, 0.45, 0.10]],
                         alpha=[0.85] * 3)
    io.write_json(str(workdir / "periodic.json"), io.periodic_to_dict(pspec))
    seen = scipy_loaded(
        workdir,
        ["dim-imm", "--ifs", "ifs.json", "--sequence", "sequence.json",
         "--out", "i"],
        ["decompose", "--ifs", "ifs.json", "--sequence", "sequence.json",
         "--N", "20", "--out", "d"],
        ["dim-mm", "--ifs", "ifs.json", "--weights", "weights.json", "--out", "m"],
        ["dim-attractor", "--ifs", "ifs.json", "--alpha", "0.9", "--out", "a"],
        ["dim-periodic", "--ifs", "ifs.json", "--periodic", "periodic.json",
         "--out", "p"],
        ["local-dim", "--ifs", "ifs.json", "--weights", "weights.json",
         "--depth", "5", "--points", "10", "--out", "l"],
        ["cascade", "--sequence", "sequence.json", "--depth", "5", "--out", "c"])
    assert seen[:2] == [set(), set()]
    for mods in seen[2:]:
        assert "scipy.special" in mods and "scipy.optimize" not in mods


def test_optimizers_load_scipy_on_demand_with_the_same_bytes(tmp_path):
    argvs = (["classify", "--ifs", "ifs.json", "--out", "k"],
             ["optimize-packing", "--ifs", "ifs.json", "--alpha", "0.9",
              "--lengths", "20,40,80", "--eps", "0.1", "--scales", "20,40",
              "--out", "o"])
    outputs = {}
    for preload in (False, True):
        cwd = tmp_path / ("preloaded" if preload else "cold")
        cwd.mkdir()
        (cwd / "ifs.json").write_text(json.dumps(IFS_DOC))
        seen = scipy_loaded(cwd, *argvs, preload=preload)
        assert "scipy.optimize" in seen[2]
        if not preload:
            assert seen[:2] == [set(), set()]
        outputs[preload] = {p.relative_to(cwd): p.read_bytes()
                            for p in sorted(cwd.rglob("*.json"))}
    assert len(outputs[False]) == 5
    assert outputs[False] == outputs[True]
