"""Byte parity of the CLI between this checkout and a base revision.

    python tools/parity.py --base HEAD^ [--size tiny|full] [--seed N ...]

Extracts ``src/`` of the base revision (``git archive``) and copies this
checkout's ``src/`` into a temporary directory, generates the benchmark's
inputs once per seed with ``perfbench/gen.py`` (made read-only), and gives
each side its own copy of them. Each side then runs ``train``,
``eval-retrieval --out`` (the trained and the generated checkpoint), four
``rank`` queries, ``features`` and ``eval-captions`` without and with a
``--spice`` file, each in a subprocess at one BLAS thread with paths relative
to its own copy. Prints one line per difference in exit code, stdout, stderr
or the SHA-256 of an output file (word-table cache sidecars record inode and
time values, so they are skipped), then a summary per seed. Differences do
not fail the run: the exit status is nonzero only when the comparison could
not be made. Everything is written under the temporary directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIDECAR_SUFFIX = ".audiotext-cache"
QUERIES = 4
TIMEOUT_S = 600


def commands(work: Path) -> list[list[str]]:
    """Every command one side runs, in order, on paths relative to ``work``."""
    retrieve = ["--checkpoint", "retrieve/model.ckpt", "--captions", "retrieve/evaluation.csv",
                "--features-dir", "retrieve/feats", "--word-embeddings", "retrieve/words.txt"]
    queries = json.loads((work / "retrieve" / "queries.json").read_text(encoding="utf-8"))
    sizes = json.loads((work / "retrieve" / "sizes.json").read_text(encoding="utf-8"))
    captions = ["eval-captions", "--candidates", "offline/candidates.csv",
                "--references", "offline/references.csv"]
    return [
        ["train", "--config", "train/run.json"],
        ["eval-retrieval", "--checkpoint", "train/out/model.ckpt",
         "--captions", "train/validation.csv", "--features-dir", "train/feats",
         "--word-embeddings", "train/words.txt", "--split", "validation",
         "--out", "train/out/eval.txt"],
        ["eval-retrieval", *retrieve, "--out", "retrieve/out/eval.txt"],
        *(["rank", *retrieve, "--query", q, "--top-k", str(sizes["sizes"]["top_k"]),
           "--out", f"retrieve/out/rank{i}.txt"] for i, q in enumerate(queries[:QUERIES])),
        ["features", "--in-dir", "offline/wav", "--out-dir", "offline/fmat"],
        [*captions, "--out", "offline/out/captions.txt"],
        [*captions, "--spice", "offline/spice.json", "--out", "offline/out/captions_spice.txt"],
    ]


def generate(inputs: Path, seed: int, size: str) -> None:
    """The benchmark's inputs of every workload, a SPICE file, all read-only."""
    import gen  # perfbench/gen.py; its retrieve checkpoint is written by this checkout

    for workload in ("train", "retrieve", "offline"):
        gen.generate(workload, seed, size, inputs / workload)
    with open(inputs / "offline" / "candidates.csv", newline="", encoding="utf-8") as fh:
        names = [row[0] for row in list(csv.reader(fh))[1:]]
    spice = {name: round(0.05 * (i % 11), 2) for i, name in enumerate(names)}
    (inputs / "offline" / "spice.json").write_text(json.dumps(spice), encoding="utf-8")
    for path in inputs.rglob("*"):
        if path.is_file():
            path.chmod(0o444)


def run_side(src: Path, inputs: Path, work: Path) -> tuple[list, dict[str, str]]:
    """(exit code, stdout, stderr) of each command, and the SHA-256 of each
    file the commands wrote, keyed by path relative to ``work``."""
    shutil.copytree(inputs, work, copy_function=shutil.copyfile)  # writable copies
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    for argv in commands(work):
        proc = subprocess.run([sys.executable, "-m", "audiotext.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        results.append((argv, proc.returncode, proc.stdout, proc.stderr))
    written = {}
    for path in sorted(work.rglob("*")):
        rel = path.relative_to(work)
        if (path.is_file() and not path.name.endswith(SIDECAR_SUFFIX)
                and not (inputs / rel).exists()):
            written[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return results, written


def first_difference(a: str, b: str) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}: {x!r} != {y!r}"
    return f"{a.count(chr(10))} != {b.count(chr(10))} lines"


def compare(seed: int, base: tuple, tree: tuple) -> int:
    """Print each difference between the base and this tree; their count."""
    lines = []
    for k, ((argv, *got_base), (_, *got_tree)) in enumerate(zip(base[0], tree[0]), start=1):
        label = f"seed {seed}: command {k} ({argv[0]})"
        for what, x, y in zip(("exit code", "stdout", "stderr"), got_base, got_tree):
            if x != y:
                detail = f"{x} != {y}" if what == "exit code" else first_difference(x, y)
                lines.append(f"{label}: {what} differs (base, this tree): {detail}")
    for name in sorted(base[1].keys() | tree[1].keys()):
        if name not in tree[1] or name not in base[1]:
            side = "base" if name in base[1] else "this tree"
            lines.append(f"seed {seed}: {name}: written only by {side}")
        elif base[1][name] != tree[1][name]:
            lines.append(f"seed {seed}: {name}: SHA-256 differs")
    for line in lines:
        print(line)
    exits = [code for _, code, _, _ in tree[0]]
    print(f"seed {seed}: {len(exits)} commands (exit codes {exits}), "
          f"{len(tree[1])} output files, {len(lines)} differences")
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # nothing lands in the checkout
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                                  args.base, "src"], capture_output=True)
        if archive.returncode != 0:
            print(f"parity: could not run: git archive {args.base}: "
                  f"{archive.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp / "base", **extra)
        shutil.copytree(REPO / "src", tmp / "tree" / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path[:0] = [str(tmp / "tree" / "src"), str(REPO / "perfbench")]
        differences = 0
        for seed in args.seed:
            inputs = tmp / f"inputs-{seed}"
            generate(inputs, seed, args.size)
            sides = [run_side(tmp / side / "src", inputs, tmp / side / f"run-{seed}")
                     for side in ("base", "tree")]
            differences += compare(seed, *sides)
        print(f"parity against {args.base} ({args.size}, seeds {args.seed}): "
              f"{differences} differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
