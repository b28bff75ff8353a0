"""Byte identity of every pipeline artifact between two commits.

    python3 tools/identity.py PARENT_REV [--shape small|desk|long] [--seed N]
                              [--threads N] [--declared FILE ...]

Checks out PARENT_REV and ``HEAD`` (uncommitted edits are not seen) as two
detached ``git worktree``s in a temporary directory, and runs the same
seeded pipeline in each with ``NMFSEG_THREADS`` set to ``--threads``
(default 1, everything inline; at 2 the worker pools and threads run):

    gen-data -> pretrain-dict -> train -> eval / segment / explain (test)
    -> probe -> ablate-beta -> report

It then prints one line per artifact, ``same`` or ``moved`` with the first
differing byte offset and, for a ``.json`` artifact, the key path of the
first differing value in document order (``$.metrics.rows[1].f1``), and a
summary.  Paths in ``*.run.json`` files are
masked first, since each side writes under its own directory.  Then one
``max-rss`` line per stage gives the maximum resident set size of that
stage's process on each side (``getrusage`` of the child, Linux), so a
memory claim is checked by the same run that checks the bytes.  The exit
status is 1 if an artifact moved (or exists on one side only) that is not
named with ``--declared`` (paths relative to the run directory, e.g.
``trace.json``), 2 if a commit cannot be checked out or a stage failed, and
0 otherwise.

``small`` takes a few seconds per side on 2 vCPUs.  ``desk`` is the default
clip, codebook and model shape on 10/2/2 minutes of audio for 3 epochs, and
takes about half a minute per side.  ``long`` is the benchmark's ``infer``
shape: 120-s clips on 2/2/16 minutes of audio, 30 dictionary iterations and
2 epochs.  Its clips are longer than one ``network.encode`` pass, so it is
the shape that runs encode's time chunks.
Hashes are not comparable across hosts (OpenBLAS picks its kernels per
CPU), so compare two commits on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHAPES = {
    "small": {"train_minutes": 0.25, "dev_minutes": 0.25, "test_minutes": 0.25,
              "clip_seconds": 5.0, "k": 8, "channels": 8, "dict_iters": 20, "dict_frames": 200,
              "epochs": 1, "batch": 4, "probe_epochs": 5, "probe_per_class": 2,
              "probe_seconds": 0.5},
    "desk": {"train_minutes": 10.0, "dev_minutes": 2.0, "test_minutes": 2.0, "epochs": 3},
    "long": {"clip_seconds": 120.0, "train_minutes": 2.0, "dev_minutes": 2.0, "test_minutes": 16.0,
             "dict_iters": 30, "epochs": 2},
}

MASK = "<run>"


def pipeline(out: Path) -> list[list[str]]:
    """The CLI argument lists of one run, in order, writing under ``out``."""
    cfg, manifest = str(out.parent / f"{out.name}.cfg"), str(out / "corpus" / "manifest.csv")
    model, dictionary = str(out / "model.nsm"), str(out / "dictionary.nsd")
    return [
        ["gen-data", "--config", cfg, "--out", str(out)],
        ["pretrain-dict", "--config", cfg, "--manifest", manifest, "--out", str(out)],
        ["train", "--config", cfg, "--manifest", manifest, "--dict", dictionary, "--out", str(out)],
        *([stage, "--config", cfg, "--model", model, "--manifest", manifest, "--split", "test",
           "--out", str(out / stage)] for stage in ("eval", "segment", "explain")),
        ["probe", "--config", cfg, "--model", model, "--out", str(out / "probe")],
        ["ablate-beta", "--config", cfg, "--manifest", manifest, "--dict", dictionary,
         "--out", str(out / "ablate-beta")],
        ["report", "--config", cfg, "--dir", str(out), "--out", str(out / "report")],
    ]


def run_stage(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float]:
    """``(exit status, max RSS in MB)`` of one CLI stage.  Its output goes to
    ``log``, a file, so the child never blocks on a full pipe while it is
    waited for."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-c", "from nmfseg.cli import main; main()", *argv],
                                cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_pipeline(tree: Path, out: Path, shape: str, seed: int, threads: int = 1) -> dict[str, float]:
    """Run every stage with ``tree``'s sources and ``NMFSEG_THREADS=threads``,
    and return each stage's max RSS in MB; raise RuntimeError on a failed
    stage."""
    out.mkdir(parents=True)
    config = dict(SHAPES[shape], seed=seed)
    (out.parent / f"{out.name}.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in config.items()))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), NMFSEG_THREADS=str(threads))
    log = out.parent / f"{out.name}.log"
    rss = {}
    for argv in pipeline(out):
        code, rss[argv[0]] = run_stage(argv, out, env, log)
        if code != 0:
            raise RuntimeError(f"{tree.name}: stage {argv[0]} exited {code}\n"
                               f"{log.read_text(errors='replace')}")
    return rss


def rss_lines(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    """One line per stage: its max RSS on each side and the change's difference."""
    return [f"max-rss  {stage:<13} parent {parent[stage]:7.1f} MB  change {change[stage]:7.1f} MB"
            f"  ({change[stage] - parent[stage]:+.1f} MB)" for stage in parent]


def artifact_bytes(path: Path, out: Path) -> bytes:
    """A file's bytes, with ``out`` masked in run logs."""
    blob = path.read_bytes()
    if path.name.endswith(".run.json"):
        blob = blob.replace(str(out).encode(), MASK.encode())
    return blob


def first_difference(a: bytes, b: bytes) -> int:
    """Offset of the first differing byte; the shorter length if one is a prefix."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def first_json_difference(a: bytes, b: bytes) -> str | None:
    """The key path of the first value that differs between two JSON
    documents, in document order; None when either is not JSON, when the
    two are different scalars (no key), or when they parse to the same
    values (they differ in layout only)."""
    try:
        path = _json_difference(json.loads(a), json.loads(b), "$")
    except ValueError:
        return None
    return None if path == "$" else path


def _json_difference(x, y, path: str) -> str | None:
    if isinstance(x, dict) and isinstance(y, dict):
        for key in [*x, *(key for key in y if key not in x)]:
            if key not in x or key not in y:
                return f"{path}.{key}"
            found = _json_difference(x[key], y[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(x, list) and isinstance(y, list):
        for i, (u, v) in enumerate(zip(x, y)):
            found = _json_difference(u, v, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(x) == len(y) else f"{path}[{min(len(x), len(y))}]"
    return None if repr(x) == repr(y) else path  # repr tells 1 from 1.0 and true, and NaN equals itself


def compare(parent: Path, change: Path, declared=()) -> tuple[list[str], bool]:
    """One line per artifact under either run directory, and whether every
    moved artifact is declared."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (parent, change) for p in root.rglob("*") if p.is_file()})
    lines, ok, moved = [], True, 0
    for name in names:
        a, b = parent / name, change / name
        if not a.exists() or not b.exists():
            status = f"moved  {name}  (only in {'change' if b.exists() else 'parent'})"
        else:
            blob_a, blob_b = artifact_bytes(a, parent), artifact_bytes(b, change)
            if blob_a == blob_b:
                lines.append(f"same   {name}")
                continue
            where = f"first difference at byte {first_difference(blob_a, blob_b)}"
            key = first_json_difference(blob_a, blob_b) if name.endswith(".json") else None
            status = f"moved  {name}  ({where}{'' if key is None else f', key {key}'})"
        moved += 1
        if name in declared:
            status += "  [declared]"
        else:
            ok = False
        lines.append(status)
    lines.append(f"{len(names)} artifacts: {len(names) - moved} same, {moved} moved"
                 f" ({sum(name in declared for name in names)} declared)")
    return lines, ok


def worktree(rev: str, path: Path) -> None:
    done = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                           str(path), rev], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"cannot check out {rev!r}: {done.stderr.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare HEAD against")
    parser.add_argument("--shape", choices=sorted(SHAPES), default="small")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--threads", type=int, default=1,
                        help="NMFSEG_THREADS for both sides (a positive integer)")
    parser.add_argument("--declared", nargs="*", default=[],
                        help="artifacts (relative paths) that are allowed to move")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be a positive integer, got {args.threads}")

    work = Path(tempfile.mkdtemp(prefix="nmfseg-identity-"))
    trees = {"parent": work / "tree-parent", "change": work / "tree-change"}
    try:
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            worktree(rev, trees[side])
        rss = {side: run_pipeline(trees[side], work / side, args.shape, args.seed, args.threads)
               for side in ("parent", "change")}
        lines, ok = compare(work / "parent", work / "change", set(args.declared))
        lines += rss_lines(rss["parent"], rss["change"])
    except RuntimeError as exc:
        print(f"identity: {exc}", file=sys.stderr)
        return 2
    finally:
        for tree in trees.values():
            if tree.exists():
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                               check=False)
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
