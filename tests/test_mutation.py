"""Seeded structured mutations of the structured-text inputs of the CLI.

Each case replaces one or two fields of a valid tiny input with an odd JSON
value: a wrong type, null, 0, -1, 0.5, NaN, Infinity, [] or {}. Every
field (containers included) meets every odd value alone; then a fixed
number of seeded cases replace two fields at once. `train`
gets the mutated run config; `eval-retrieval` and `rank` get a checkpoint
whose header is mutated and whose payload is the valid one. The flat files,
`rank --query-vector` and `eval-captions --spice`, also meet 2**63, 1e308
and an array nested DEEP_LEVELS deep; they hold no sizes. Byte mutations
(a byte set, bytes deleted or inserted, the file cut short) of one FMAT file,
the caption CSV, the word table, the checkpoint and the EVEC caption table
(with a sentence_table checkpoint) go through `eval-retrieval`, of the
candidate and the reference CSV through `eval-captions`, and of one stereo
WAV through `features`. Every command
runs in-process through `cli.main` and must end in exit 0, or in exit 1
with exactly one `error: ` line on stderr and no new file (directories
aside); an exception out of `main` is a failure. No odd value is a size
that is valid but large, so each case runs on the tiny inputs or stops.
"""

import copy
import json
import math
import random
import shutil
import struct
import time
import warnings

import pytest

from audiotext.retrieval import SCORERS
from test_cli import (_write_caption_table, base_config_dict, make_checkpoint, make_dataset,
                      run_cli, write_config)
from helpers import small_config, write_candidates_csv, write_caption_csv, write_wav

SEED = 2024
PAIR_CASES = 100  # two-field cases per command
TIME_BOUND_S = 60.0  # per command; the cases take a few seconds on one core
ODD_VALUES = ("x", True, None, 0, -1, 0.5, math.nan, math.inf, [], {})
# DEEP stands for an array nested DEEP_LEVELS deep, which _dump writes out:
# deeper than any parser recursion limit, and fixed before the run
DEEP, DEEP_LEVELS = "<array nested DEEP_LEVELS deep>", 100_000
FILE_VALUES = (*ODD_VALUES, 2**63, 1e308, DEEP)
BYTE_CASES = 300  # seeded byte mutations per binary or text input file
HEAD_BYTES = 16  # the FMAT header's length; half the byte mutations fall before it


def _paths(node, prefix=()):
    """Every path into a JSON tree, containers included, in document order."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutations(command, tree, values):
    """The command's fixed list of cases, each a list of (path, value)
    replacements: every single one, then PAIR_CASES seeded pairs of paths
    of which neither lies under the other."""
    rng = random.Random(f"{SEED}-{command}")
    paths = list(_paths(tree))
    cases = [[(p, v)] for p in paths for v in values]
    for _ in range(PAIR_CASES):
        first = rng.choice(paths)
        second = rng.choice([p for p in paths
                             if p[:len(first)] != first and first[:len(p)] != p])
        cases.append([(first, rng.choice(values)), (second, rng.choice(values))])
    return cases


def _mutate(tree, case):
    tree = copy.deepcopy(tree)
    for path, value in case:
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return tree


def _dump(tree):
    """The tree as structured text, with DEEP written out."""
    return json.dumps(tree).replace(json.dumps(DEEP), "[" * DEEP_LEVELS + "]" * DEEP_LEVELS)


def _files(root):
    return {p for p in root.rglob("*") if p.is_file()}


def _check(argv, root, case):
    """The contract of one command, as a list of failures."""
    before = _files(root)
    try:
        # a warning would reach stderr outside the test: count it as a line there
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv)
    except Exception as e:  # any exception breaks the contract
        return [f"{case}: {type(e).__name__}: {e}"]
    err = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught) + err
    if code == 0 and err == "":
        return []
    if code != 1 or not err.startswith("error: ") or err.count("\n") != 1:
        return [f"{case}: exit {code}, stderr {err!r}"]
    new = _files(root) - before
    return [f"{case}: new files after a failure: {sorted(map(str, new))}"] if new else []


def _run_cases(command, cases, run_one):
    start = time.perf_counter()
    failures = [f for case in cases for f in run_one(case)]
    elapsed = time.perf_counter() - start
    assert failures == [], "\n".join(failures)
    assert elapsed < TIME_BOUND_S, f"{command}: {len(cases)} cases took {elapsed:.1f} s"


def test_train_survives_mutated_run_configs(tmp_path):
    ds = make_dataset(tmp_path / "data")
    valid = base_config_dict(ds, tmp_path / "valid", epochs=2)
    # the valid run also writes the word table's cache sidecar, so that
    # no later case creates it
    code, _, err = run_cli(["train", "--config", str(write_config(tmp_path / "valid.json",
                                                                    valid))])
    assert (code, err) == (0, "")

    def run_one(case):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_mutate(base_config_dict(ds, tmp_path / "out", epochs=2),
                                           case)), encoding="utf-8")
        return _check(["train", "--config", str(path)], tmp_path, case)

    _run_cases("train", _mutations("train", valid, ODD_VALUES), run_one)


def _split_checkpoint(path):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    return raw[:4], json.loads(raw[8:8 + hlen]), raw[8 + hlen:]


@pytest.mark.parametrize("command", ["eval-retrieval", "rank"])
def test_scoring_survives_mutated_checkpoint_headers(tmp_path, command):
    ds = make_dataset(tmp_path / "data")
    magic, header, payload = _split_checkpoint(
        make_checkpoint(tmp_path / "valid.ckpt", small_config()))
    extra = ["--query", "w0 w1", "--top-k", "2"] if command == "rank" else []

    def argv(ckpt):
        return [command, "--checkpoint", str(ckpt), "--captions", str(ds["val_csv"]),
                "--features-dir", str(ds["feats"]), "--feature-kind", "external",
                "--word-embeddings", str(ds["words"]), *extra]

    code, _, err = run_cli(argv(tmp_path / "valid.ckpt"))
    assert (code, err) == (0, "")

    def run_one(case):
        blob = json.dumps(_mutate(header, case), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        ckpt = tmp_path / "case.ckpt"
        ckpt.write_bytes(magic + struct.pack("<I", len(blob)) + blob + payload)
        return _check(argv(ckpt), tmp_path, case)

    _run_cases(command, _mutations(command, header, ODD_VALUES), run_one)


@pytest.mark.parametrize("scorer", SCORERS)
def test_rank_survives_mutated_query_vectors(tmp_path, scorer):
    ds = make_dataset(tmp_path / "data")
    ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(text_mode="sentence_table"))
    vector = [0.1, -0.2, 0.3, 0.0, 0.5, -0.4]
    path = tmp_path / "query.json"
    argv = ["rank", "--checkpoint", str(ckpt), "--captions", str(ds["val_csv"]),
            "--features-dir", str(ds["feats"]), "--feature-kind", "external",
            "--query", "unused", "--top-k", "2", "--query-vector", str(path),
            "--scorer", scorer]
    path.write_text(json.dumps(vector), encoding="utf-8")
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")

    def run_one(case):
        path.write_text(_dump(_mutate(vector, case)), encoding="utf-8")
        return _check(argv, tmp_path, case)

    _run_cases("rank --query-vector", _mutations("rank --query-vector", vector, FILE_VALUES),
               run_one)


def test_eval_captions_survives_mutated_spice_files(tmp_path):
    refs = [(f"clip{i}.wav", [f"w{i} w{j} w{i + j}" for j in range(5)]) for i in range(3)]
    refs_csv = write_caption_csv(tmp_path / "refs.csv", refs)
    cands_csv = write_candidates_csv(tmp_path / "cands.csv",
                                     [(name, caps[0]) for name, caps in refs])
    spice = {name: 0.25 * i for i, (name, _) in enumerate(refs)}
    path = tmp_path / "spice.json"
    argv = ["eval-captions", "--candidates", str(cands_csv), "--references", str(refs_csv),
            "--spice", str(path)]
    path.write_text(json.dumps(spice), encoding="utf-8")
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")

    def run_one(case):
        path.write_text(_dump(_mutate(spice, case)), encoding="utf-8")
        return _check(argv, tmp_path, case)

    _run_cases("eval-captions --spice",
               _mutations("eval-captions --spice", spice, FILE_VALUES), run_one)


def _byte_mutations(name, data):
    """BYTE_CASES seeded mutations of data, each a (label, bytes) pair: one
    byte set to a random value, a run of 1-8 bytes deleted, 1-8 random bytes
    inserted, or the data cut short."""
    rng = random.Random(f"{SEED}-{name}")
    cases = []
    for _ in range(BYTE_CASES):
        i = rng.randrange(min(HEAD_BYTES, len(data)) if rng.random() < 0.5 else len(data))
        kind, n = rng.choice(("set", "delete", "insert", "truncate")), rng.randint(1, 8)
        if kind == "set":
            mutated = data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
        elif kind == "delete":
            mutated = data[:i] + data[i + n:]
        elif kind == "insert":
            mutated = data[:i] + rng.randbytes(n) + data[i:]
        else:
            mutated = data[:i]
        cases.append((f"{name}: {kind} at byte {i}", mutated))
    return cases


@pytest.mark.parametrize("target", ["fmat", "captions", "words", "checkpoint",
                                    "caption_table"])
def test_eval_retrieval_survives_byte_mutations(tmp_path, target):
    ds = make_dataset(tmp_path / "data")
    if target == "caption_table":  # read by a sentence_table model only
        ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config(text_mode="sentence_table"))
        table = _write_caption_table(ds, tmp_path / "captions.evec")
        text = ["--caption-embeddings", str(table)]
    else:
        ckpt = make_checkpoint(tmp_path / "model.ckpt", small_config())
        table, text = None, ["--word-embeddings", str(ds["words"])]
    argv = ["eval-retrieval", "--checkpoint", str(ckpt), "--captions", str(ds["val_csv"]),
            "--features-dir", str(ds["feats"]), "--feature-kind", "external", *text]
    # the valid run also writes the word table's cache sidecar
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")
    path = {"captions": ds["val_csv"], "words": ds["words"],
            "fmat": ds["feats"] / f"{ds['names'][0]}.fmat", "checkpoint": ckpt,
            "caption_table": table}[target]

    def run_one(case):
        label, data = case
        path.write_bytes(data)
        return _check(argv, tmp_path, label)

    _run_cases(f"eval-retrieval {target}", _byte_mutations(target, path.read_bytes()), run_one)


@pytest.mark.parametrize("target", ["candidates", "references"])
def test_eval_captions_survives_byte_mutations(tmp_path, target):
    refs = [(f"clip{i}.wav", [f"w{i} w{j} w{i + j}" for j in range(5)]) for i in range(3)]
    paths = {"references": write_caption_csv(tmp_path / "refs.csv", refs),
             "candidates": write_candidates_csv(tmp_path / "cands.csv",
                                                [(name, caps[0]) for name, caps in refs])}
    argv = ["eval-captions", "--candidates", str(paths["candidates"]),
            "--references", str(paths["references"])]
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")
    path = paths[target]

    def run_one(case):
        label, data = case
        path.write_bytes(data)
        return _check(argv, tmp_path, label)

    _run_cases(f"eval-captions {target}", _byte_mutations(target, path.read_bytes()), run_one)


def test_features_survives_byte_mutations_of_a_stereo_wav(tmp_path):
    wav_dir, out_dir = tmp_path / "wav", tmp_path / "out"
    wav_dir.mkdir()
    rng = random.Random(SEED)
    pcm = [[rng.randint(-8000, 8000) for _ in range(2)] for _ in range(1600)]
    path = write_wav(wav_dir / "clip.wav", pcm, 16000, channels=2)
    argv = ["features", "--in-dir", str(wav_dir), "--out-dir", str(out_dir)]
    code, _, err = run_cli(argv)
    assert (code, err) == (0, "")

    def run_one(case):
        label, data = case
        shutil.rmtree(out_dir, ignore_errors=True)  # each case writes its features anew
        path.write_bytes(data)
        return _check(argv, tmp_path, label)

    _run_cases("features wav", _byte_mutations("wav", path.read_bytes()), run_one)
