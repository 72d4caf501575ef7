"""Serialization: strict JSON, model descriptors, tree encoding,
manifests and CSV formatting.

Round-trips must be exact: floats survive via repr, tree code sets via
run-length spans, manifests via canonical hashing.
"""

import copy
import gc
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedim import io
from spongedim.engine import three_weight_gap_sequence
from spongedim.simulate import sample_tree
from spongedim.weights import WeightModel, WeightSequence

from conftest import carpet


# === strict JSON ===

def test_strict_loads_rejects_non_finite():
    for text in ("NaN", "Infinity", "-Infinity", '{"x": [-Infinity]}'):
        with pytest.raises(ValueError):
            io.strict_loads(text)


# past the double range: a long exponent, long digit runs before an
# exponent, a long integer part
OVERFLOW_SHAPES = ["1E+400", "-1e0309", "7" * 250 + "e60", "9" * 310 + ".0"]

ATOMS = [{"prob": 0.5, "c": [1, 1, 1], "w": [0.6, 0.525, 0.375]},
         {"prob": 0.5, "c": [1, 1, 1], "w": [0.2, 0.175, 0.125]}]
# schema -> (its loader, a document that loads)
DOCS = {
    "ifs": (io.ifs_from_dict, {"dimension": 2, "maps": [
        {"a": [1 / 3, 0.5], "t": [0.0, 0.0]}, {"a": [1 / 3, 0.5], "t": [2 / 3, 0.0]}]}),
    "deterministic": (io.weights_from_dict,
                      {"type": "deterministic", "p": [0.4, 0.35, 0.25]}),
    "percolation": (io.weights_from_dict, {"type": "percolation", "p": [0.4, 0.35, 0.25],
                                           "alpha": [0.9, 0.8, 0.85]}),
    "atoms": (io.weights_from_dict, {"type": "atoms", "atoms": ATOMS}),
    "sequence": (io.sequence_from_dict, {"alpha": [0.9, 0.8, 0.85],
                                         "blocks": [{"len": 2, "p": [0.4, 0.35, 0.25]}]}),
    "atom-sequence": (io.sequence_from_dict, {"blocks": [{"len": 2, "atoms": ATOMS}]}),
    "periodic": (io.periodic_from_dict, {"lambda": 4.0, "alpha": [0.9, 0.8, 0.85], "knots": [
        {"t": 1.0, "p": [0.4, 0.35, 0.25]}, {"t": 2.0, "p": [0.5, 0.25, 0.25]}]}),
    "tree": (io.tree_from_dict, io.tree_to_dict(sample_tree(3, [1.0] * 3, depth=2), {})),
    "manifest": (io.manifest_from_dict, {
        "schema": "spongedim.manifest.v1", "version": io.VERSION, "command": "simulate",
        "params": {"depth": 2, "out": "o"}, "seed": 0,
        "inputs": {"ifs.json": "0" * 64}, "outputs": {"o/tree.json": "1" * 64}}),
}
# every number field, as its schema and its path in that schema's document;
# a manifest's hashes are strings, and a number there must fail as well
NUMBER_FIELDS = [
    ("ifs", "dimension"), ("ifs", "maps", 1, "a", 0), ("ifs", "maps", 1, "t", 0),
    ("deterministic", "p", 1),
    ("percolation", "p", 2), ("percolation", "alpha", 2),
    ("atoms", "atoms", 0, "prob"), ("atoms", "atoms", 1, "c", 0),
    ("atoms", "atoms", 1, "w", 0),
    ("sequence", "blocks", 0, "len"), ("sequence", "blocks", 0, "p", 0),
    ("sequence", "alpha", 1),
    ("atom-sequence", "blocks", 0, "len"), ("atom-sequence", "blocks", 0, "atoms", 0, "prob"),
    ("atom-sequence", "blocks", 0, "atoms", 1, "c", 2),
    ("atom-sequence", "blocks", 0, "atoms", 1, "w", 2),
    ("periodic", "lambda"), ("periodic", "knots", 1, "t"), ("periodic", "knots", 0, "p", 1),
    ("periodic", "alpha", 1),
    ("tree", "seed"), ("tree", "depth"), ("tree", "arity"), ("tree", "counts", 1),
    ("tree", "levels", 1, 0, 0), ("tree", "levels", 1, 0, 1), ("tree", "model_hash"),
    ("manifest", "seed"), ("manifest", "params", "depth"),
    ("manifest", "inputs", "ifs.json"), ("manifest", "outputs", "o/tree.json"),
]


def _with_literal(doc, path, literal):
    """The text of `doc` with the value at `path` written as `literal`."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@literal@"
    return json.dumps(doc).replace('"@literal@"', literal)


def _refuses(from_dict, text) -> bool:
    try:
        from_dict(io.strict_loads(text))
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("literal", OVERFLOW_SHAPES,
                         ids=["E+400", "e0309", "250-digits-e60", "310-digit-integer"])
def test_every_number_field_refuses_overflow_shapes(literal):
    # the parser reads these literals as infinities; the loader of each
    # field refuses them where it converts the number
    for from_dict, doc in DOCS.values():
        from_dict(copy.deepcopy(doc))
    accepted = [(schema, *path) for schema, *path in NUMBER_FIELDS
                if not _refuses(DOCS[schema][0],
                                _with_literal(DOCS[schema][1], path, literal))]
    assert accepted == []


def test_strict_loads_restores_the_gc_state(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"blocks": [{"len": 2, "p": [0.5, 0.5]}]}')
    bad.write_text('{"blocks": [{"len": 2, "p": [1e999, 0.5]}]}')
    enabled = gc.isenabled()
    try:
        for state in (False, True):
            (gc.enable if state else gc.disable)()
            io.load_sequence(str(good))
            assert gc.isenabled() is state
            with pytest.raises(ValueError, match="non-finite"):
                io.load_sequence(str(bad))
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()


def test_strict_loads_accepts_plain():
    assert io.strict_loads('{"a": [1, 2.5, "x"]}') == {"a": [1, 2.5, "x"]}


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        io.write_json(str(tmp_path / "x.json"), {"v": float("nan")})


def test_write_json_format(tmp_path):
    path = str(tmp_path / "x.json")
    io.write_json(path, {"b": 2, "a": 1})
    raw = open(path, "rb").read()
    assert raw.endswith(b"\n")
    assert b"\r" not in raw
    assert raw.index(b'"a"') < raw.index(b'"b"')


# === descriptors ===

def test_ifs_roundtrip(mcmullen, tmp_path):
    d = io.ifs_to_dict(mcmullen)
    back = io.ifs_from_dict(d)
    assert np.array_equal(back.A, mcmullen.A)
    assert np.array_equal(back.T, mcmullen.T)
    path = str(tmp_path / "ifs.json")
    io.write_json(path, d)
    again = io.load_ifs(path)
    assert np.array_equal(again.A, mcmullen.A)


def test_ifs_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        io.ifs_from_dict({"dimension": 2, "maps": [], "extra": 1})


WRONG_TYPES = [
    (io.ifs_from_dict, {"dimension": 2, "maps": 5}),
    (io.ifs_from_dict, {"dimension": "2", "maps": [{"a": [0.5, 0.5], "t": [0, 0]},
                                                   {"a": [0.5, 0.5], "t": [0.5, 0.5]}]}),
    (io.ifs_from_dict, {"dimension": 2, "maps": [{"a": 5, "t": [0, 0]}]}),
    (io.ifs_from_dict, {"dimension": 2, "maps": [{"a": [{"x": 1}, 0.5], "t": [0, 0]}]}),
    (io.periodic_from_dict, {"lambda": 4.0, "knots": 5}),
    (io.periodic_from_dict, {"lambda": [4.0], "knots": [{"t": 1.0, "p": [0.5, 0.5]}]}),
    (io.periodic_from_dict, {"lambda": 4.0, "knots": [{"t": {}, "p": [0.5, 0.5]}]}),
    (io.periodic_from_dict, {"lambda": 4.0, "knots": [{"t": 1.0, "p": [0.5, 0.5]}],
                             "alpha": {"a": 1}}),
    (io.sequence_from_dict, {"blocks": [{"len": 1, "p": {"a": 1}}]}),
    (io.sequence_from_dict, {"blocks": [{"len": 1, "p": [0.5, 0.5]}], "alpha": [{}, 1]}),
    (io.weights_from_dict, {"type": "deterministic", "p": [{"a": 1}, 0.5]}),
    (io.weights_from_dict, {"type": "atoms", "atoms": [{"prob": {}, "c": [1], "w": [1]}]}),
    # strings that spell numbers are no numbers either
    (io.sequence_from_dict, {"blocks": [{"len": 2, "p": ["0.5", "0.25", "0.25"]}]}),
    (io.sequence_from_dict, {"blocks": [{"len": 1, "p": [0.5, 0.5]}], "alpha": ["0.9", 1]}),
    (io.weights_from_dict, {"type": "deterministic", "p": ["0.5", "0.25", "0.25"]}),
    (io.weights_from_dict, {"type": "deterministic", "p": [10 ** 20, "0.5"]}),
    (io.weights_from_dict, {"type": "percolation", "p": [0.4, 0.35, 0.25],
                            "alpha": ["0.9", 0.8, 0.85]}),
    (io.periodic_from_dict, {"lambda": 4.0, "knots": [{"t": 1.0, "p": ["0.5", "0.5"]}]}),
    (io.periodic_from_dict, {"lambda": 4.0, "knots": [{"t": 1.0, "p": [0.5, 0.5]}],
                             "alpha": [0.9, "0.9"]}),
    (io.tree_from_dict, dict(DOCS["tree"][1], model_hash=5)),
    # what rerun reads of a manifest: a string command, params an object,
    # and inputs and outputs that map strings to strings
    (io.manifest_from_dict, dict(DOCS["manifest"][1], inputs={"ifs.json": 5})),
    (io.manifest_from_dict, dict(DOCS["manifest"][1], inputs=[1, 2])),
    (io.manifest_from_dict, dict(DOCS["manifest"][1], outputs={"o/tree.json": None})),
    (io.manifest_from_dict, dict(DOCS["manifest"][1], command=["simulate"])),
    (io.manifest_from_dict, dict(DOCS["manifest"][1], params="--depth 2")),
    (io.manifest_from_dict, {k: v for k, v in DOCS["manifest"][1].items() if k != "params"}),
]


@pytest.mark.parametrize("from_dict, doc", WRONG_TYPES)
def test_model_dicts_refuse_values_of_the_wrong_type(from_dict, doc):
    # a ValueError, which the CLI reports as bad input (exit 2), not the
    # TypeError of a conversion
    with pytest.raises(ValueError):
        from_dict(doc)


def test_weights_roundtrip_all_kinds():
    models = [
        WeightModel.deterministic([0.5, 0.3, 0.2]),
        WeightModel.percolation([0.4, 0.35, 0.25], [0.9, 0.8, 0.85]),
        WeightModel.atoms([(0.5, [1, 1, 1], [0.56, 0.49, 0.35]),
                           (0.5, [1, 1, 0], [0.35, 0.25, 0.0])]),
    ]
    for m in models:
        back = io.weights_from_dict(io.weights_to_dict(m))
        assert back.kind == m.kind
        assert np.allclose(back.mean(), m.mean(), atol=1e-15)


def test_sequence_roundtrip():
    seq = WeightSequence.from_blocks([3, 5], [[0.5, 0.5], [0.25, 0.75]],
                                     alpha=[0.9, 0.8])
    back = io.sequence_from_dict(io.sequence_to_dict(seq))
    assert back.horizon == seq.horizon
    assert np.array_equal(back.p_rows(), seq.p_rows())
    assert np.array_equal(back.alpha, seq.alpha)
    assert back.block_lengths == seq.block_lengths


def test_atom_block_sequence_roundtrip(mcmullen):
    sched = three_weight_gap_sequence(mcmullen, np.array((0.4, 0.35, 0.25)),
                                      H1=0.82, H3=-0.85, horizon=2000)
    seq = sched.seq
    doc = io.sequence_to_dict(seq)
    text = io.canonical_json(doc)
    back = io.sequence_from_dict(io.strict_loads(text))
    assert back.models is not None
    assert back.block_lengths == seq.block_lengths
    assert np.array_equal(back.p_rows(), seq.p_rows())
    assert np.array_equal(back.H_array(), seq.H_array())
    assert io.canonical_json(io.sequence_to_dict(back)) == text
    # atom blocks bring their own survival: no shared alpha beside them
    with pytest.raises(ValueError, match="alpha"):
        io.sequence_from_dict(dict(doc, alpha=[0.9, 0.9, 0.9]))
    mixed = {"blocks": [doc["blocks"][0], {"len": 2, "p": [0.5, 0.5]}]}
    with pytest.raises(ValueError, match="letters"):
        io.sequence_from_dict(mixed)


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_float_roundtrip_exact(raw):
    # repr-based encoding keeps every float bit
    p = np.array(raw) / np.sum(raw)
    p[-1] = 1.0 - p[:-1].sum()
    if p.min() <= 0:
        return
    seq = WeightSequence.from_blocks([2], [p], alpha=None)
    text = io.canonical_json(io.sequence_to_dict(seq))
    back = io.sequence_from_dict(io.strict_loads(text))
    assert np.array_equal(back.p_rows(), seq.p_rows())


# === trees ===

def test_tree_roundtrip(mcmullen):
    tree = sample_tree(mcmullen, np.array([0.85, 0.8, 0.9]), depth=7,
                       seed=11)
    d = io.tree_to_dict(tree, {"type": "percolation-tree"})
    back = io.tree_from_dict(d)
    assert back.arity == tree.arity
    assert back.depth == tree.depth
    for lvl in range(8):
        assert np.array_equal(back.levels[lvl], tree.levels[lvl])


def test_tree_dict_is_runlength_compact(mcmullen):
    tree = sample_tree(mcmullen, np.ones(3), depth=6, seed=0)
    d = io.tree_to_dict(tree, {"type": "percolation-tree"})
    # a full tree is one run per level
    assert all(len(runs) == 1 for runs in d["levels"][1:])
    assert d["schema"] == "spongedim.tree.v1"


def test_tree_dict_validates_counts(mcmullen):
    tree = sample_tree(mcmullen, np.array([0.8, 0.8, 0.8]), depth=4, seed=2)
    d = io.tree_to_dict(tree, {"type": "percolation-tree"})
    d["counts"][2] += 1
    with pytest.raises(ValueError):
        io.tree_from_dict(d)


def runs_oracle(codes):
    """The per-run list comprehension that `io._encode_runs` replaced."""
    if codes.size == 0:
        return []
    c = codes.astype(np.int64)
    breaks = np.nonzero(np.diff(c) != 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [c.size - 1]])
    return [[int(c[a]), int(b - a + 1)] for a, b in zip(starts, ends)]


def _one_run(start_len):
    start, length = start_len
    return list(range(start, start + length))


code_sets = st.one_of(
    st.just([]),
    st.integers(1, 2 ** 63 - 1).map(lambda c: [c]),
    st.tuples(st.integers(1, 2 ** 62), st.integers(1, 500)).map(_one_run),
    st.sets(st.integers(1, 300), max_size=200).map(sorted),
    st.sets(st.integers(1, 2 ** 63 - 1), max_size=50).map(sorted),
)


@given(code_sets)
@settings(max_examples=200, deadline=None)
def test_encode_runs_matches_oracle_and_decodes_back(codes):
    arr = np.array(codes, dtype=np.uint64)
    runs = io._encode_runs(arr)
    assert runs == runs_oracle(arr)
    assert all(type(x) is int for run in runs for x in run)
    # through the file's text, as a dump is read back
    runs = io.strict_loads(io.canonical_json(runs))
    back, _, _ = io._decode_level(runs, 0, 1, 2 ** 63 - 1)
    assert back.tolist() == codes


@given(st.integers(1, 4), st.floats(0.3, 1.0), st.integers(0, 9),
       st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_sampled_tree_dump_reloads_to_identical_levels(arity, alpha, depth, seed):
    tree = sample_tree(arity, [alpha] * arity, depth=depth, seed=seed)
    doc = io.tree_to_dict(tree, {"type": "percolation-tree"})
    assert doc["levels"] == [runs_oracle(lvl) for lvl in tree.levels]
    back = io.tree_from_dict(io.strict_loads(io.canonical_json(doc)))
    assert back.counts.tolist() == tree.counts.tolist()
    for a, b in zip(back.levels, tree.levels):
        assert a.dtype == np.uint64 and np.array_equal(a, b)


@pytest.mark.parametrize("level, runs", [(0, runs) for runs in (
    [[True, 1]], [[1, True]], [[1, 1.0]], [[1.5, 1]], [["1", 1]], ["11"],
    [[1, 1, 1]], [[1]], [1], [None], [{"a": 1, "b": 2}],
    [[2 ** 63, 1]], [[-2 ** 63 - 1, 1]],
)] + [(1, [[4, 1, 5], [6]])])    # as many numbers as two pairs
def test_tree_dump_rejects_non_integer_runs(level, runs):
    doc = io.tree_to_dict(sample_tree(3, [1.0] * 3, depth=1), {})
    doc["levels"][level] = runs
    with pytest.raises(ValueError, match="pairs of integers"):
        io.tree_from_dict(doc)


# === manifests and hashing ===

def test_manifest_verify_cycle(tmp_path):
    inp = str(tmp_path / "in.json")
    out = str(tmp_path / "out.json")
    io.write_json(inp, {"x": 1})
    io.write_json(out, {"y": 2})
    man = io.make_manifest("dim-mm", {"out": str(tmp_path)}, [inp], [out],
                           seed=7)
    assert man["schema"] == "spongedim.manifest.v1"
    assert io.verify_hashes(man["inputs"]) == []
    assert io.verify_hashes(man["outputs"]) == []
    io.write_json(out, {"y": 3})
    assert io.verify_hashes(man["outputs"]) != []


def test_model_hash_stable_and_sensitive():
    a = io.model_hash({"type": "percolation", "p": [0.5, 0.5]})
    b = io.model_hash({"p": [0.5, 0.5], "type": "percolation"})
    c = io.model_hash({"type": "percolation", "p": [0.5, 0.4999]})
    assert a == b
    assert a != c


# === CSV and words ===

def test_csv_format(tmp_path):
    path = str(tmp_path / "t.csv")
    io.write_csv(path, ["N", "count"], [[1.5, 3], [2.5, 9]])
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.splitlines()[0] == "N,count"
    assert "1.5,3" in text
    assert "," in text and ";" not in text


def test_word_string_forms():
    assert io.word_strings(np.array([[0, 2, 1], [2, 2, 0]]), 3) == ["021", "220"]
    assert io.word_strings(np.array([[0, 11, 3]]), 12) == ["0-11-3"]
    assert io.word_strings(np.array([[9, 0]]), 10) == ["90"]
    assert io.word_strings(np.zeros((2, 0), dtype=np.int64), 3) == ["", ""]
