"""tools/identity.py: the artifact comparison, and a smoke run of the whole
pipeline in two worktrees of one commit."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"

_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _tree(root: Path, files: dict) -> Path:
    for name, blob in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
    return root


class TestCompare:
    def test_run_logs_are_compared_with_their_run_directory_masked(self, tmp_path):
        a = _tree(tmp_path / "parent", {"x.run.json": f'{{"out": "{tmp_path}/parent/m"}}'.encode()})
        b = _tree(tmp_path / "change", {"x.run.json": f'{{"out": "{tmp_path}/change/m"}}'.encode()})
        lines, ok = identity.compare(a, b)
        assert ok and lines[0] == "same   x.run.json"

    def test_paths_outside_run_logs_are_not_masked(self, tmp_path):
        a = _tree(tmp_path / "parent", {"notes.txt": str(tmp_path / "parent").encode()})
        b = _tree(tmp_path / "change", {"notes.txt": str(tmp_path / "change").encode()})
        _, ok = identity.compare(a, b)
        assert not ok

    def test_moved_artifact_names_its_first_differing_byte(self, tmp_path):
        a = _tree(tmp_path / "parent", {"model.nsm": b"NSM1abcd", "same.bin": b"\x00"})
        b = _tree(tmp_path / "change", {"model.nsm": b"NSM1abXd", "same.bin": b"\x00"})
        lines, ok = identity.compare(a, b)
        assert not ok
        assert lines[:2] == ["moved  model.nsm  (first difference at byte 6)", "same   same.bin"]
        assert lines[-1] == "2 artifacts: 1 same, 1 moved (0 declared)"

    def test_a_prefix_differs_at_the_shorter_length(self, tmp_path):
        a = _tree(tmp_path / "parent", {"t.json": b"[1, 2]"})
        b = _tree(tmp_path / "change", {"t.json": b"[1, 2]\n"})
        assert identity.compare(a, b)[0][0] == "moved  t.json  (first difference at byte 6)"

    def test_moved_json_names_its_first_differing_key(self, tmp_path):
        a = _tree(tmp_path / "parent", {
            "eval/f1.json": b'{"macro": 0.5, "per_class": {"music": [1, 2], "speech": [3, 4]}}',
            "ablate-beta/ablation.json": b'{"rows": [{"beta": 0.0, "recon": 2}], "z": 1}',
            "trace.json": b'[{"epoch": 0}]',
        })
        b = _tree(tmp_path / "change", {
            "eval/f1.json": b'{"macro": 0.5, "per_class": {"music": [1, 2], "speech": [3, 5]}}',
            "ablate-beta/ablation.json": b'{"rows": [{"beta": 0.0, "recon": 2.0}], "z": 2}',
            "trace.json": b'[{"epoch": 0}, {"epoch": 1}]',
        })
        lines, _ = identity.compare(a, b)
        assert lines[:3] == [
            "moved  ablate-beta/ablation.json  (first difference at byte 34, key $.rows[0].recon)",
            "moved  eval/f1.json  (first difference at byte 60, key $.per_class.speech[1])",
            "moved  trace.json  (first difference at byte 13, key $[1])",
        ]

    def test_json_key_on_one_side_or_not_json(self, tmp_path):
        a = _tree(tmp_path / "parent", {"s.json": b'{"a": 1, "c": 3}', "broken.json": b'{"a": 1',
                                        "model.nsm": b'{"a": 1}'})
        b = _tree(tmp_path / "change", {"s.json": b'{"a": 1, "b": 2, "c": 3}', "broken.json": b'{"a": 2',
                                        "model.nsm": b'{"a": 2}'})
        lines, _ = identity.compare(a, b)
        assert lines[:3] == ["moved  broken.json  (first difference at byte 6)",
                             "moved  model.nsm  (first difference at byte 6)",
                             "moved  s.json  (first difference at byte 10, key $.b)"]

    def test_run_log_key_is_found_after_masking(self, tmp_path):
        a = _tree(tmp_path / "parent", {"x.run.json": f'{{"out": "{tmp_path}/parent", "seed": 1}}'.encode()})
        b = _tree(tmp_path / "change", {"x.run.json": f'{{"out": "{tmp_path}/change", "seed": 2}}'.encode()})
        assert identity.compare(a, b)[0][0].endswith(", key $.seed)")

    def test_declared_moves_pass_and_others_fail(self, tmp_path):
        a = _tree(tmp_path / "parent", {"trace.json": b"1", "sub/f1.csv": b"a"})
        b = _tree(tmp_path / "change", {"trace.json": b"2", "sub/f1.csv": b"a", "extra.bin": b""})
        lines, ok = identity.compare(a, b, {"trace.json"})
        assert not ok
        assert "moved  extra.bin  (only in change)" in lines
        assert "moved  trace.json  (first difference at byte 0)  [declared]" in lines
        _, ok = identity.compare(a, b, {"trace.json", "extra.bin"})
        assert ok


class TestFeatureCache:
    def test_cache_entries_are_counted_not_compared(self, tmp_path):
        """Feature-cache entries sit beside the WAVs of one side only (or
        differ between sides): they neither move an artifact nor fail the run."""
        a = _tree(tmp_path / "parent", {"corpus/audio/a.wav": b"RIFF", "model.nsm": b"NSM1"})
        b = _tree(tmp_path / "change", {
            "corpus/audio/a.wav": b"RIFF", "model.nsm": b"NSM1",
            "corpus/audio/.nmfseg-features/0a1b.nsf": b"NSF1",
            "corpus/audio/.nmfseg-features/2c3d.nsf": b"NSF1 other",
            "corpus/.nmfseg-features/4e5f.nsf": b"NSF1",
        })
        lines, ok = identity.compare(a, b)
        assert ok
        assert lines == ["same   corpus/audio/a.wav", "same   model.nsm",
                         "2 artifacts: 2 same, 0 moved (0 declared)"]
        assert identity.cache_line(a, b) == ("feature-cache  parent 0 entries  change 3 entries"
                                             "  (not compared)")
        assert identity.cache_line(b, b).startswith("feature-cache  parent 3 entries  change 3 entries")

    def test_only_a_cache_directory_component_is_skipped(self, tmp_path):
        a = _tree(tmp_path / "parent", {"x.nmfseg-features.nsf": b"1", "nmfseg-features/e.nsf": b"1"})
        b = _tree(tmp_path / "change", {"x.nmfseg-features.nsf": b"2", "nmfseg-features/e.nsf": b"2"})
        lines, ok = identity.compare(a, b)
        assert not ok and lines[-1] == "2 artifacts: 0 same, 2 moved (0 declared)"
        assert identity.cache_line(a, b).startswith("feature-cache  parent 0 entries  change 0 entries")


# a stand-in CLI: each stage writes one file whose name carries NMFSEG_THREADS
_FAKE_CLI = """import os, sys
from pathlib import Path

def main():
    argv = sys.argv[1:]
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{argv[0]}-threads-{os.environ['NMFSEG_THREADS']}.txt").write_text(argv[0])
"""


def _fake_worktree(rev, path):
    _tree(path / "src" / "nmfseg", {"__init__.py": b"", "cli.py": _FAKE_CLI.encode()})


def _report(out: str) -> tuple[list, list]:
    """The artifact lines with their summary, and the ``max-rss`` lines after
    the one ``feature-cache`` line that follows them."""
    lines = out.splitlines()
    first = next((i for i, line in enumerate(lines) if line.startswith("max-rss ")), len(lines))
    assert not any(line.startswith("max-rss ") for line in lines[:first]) and all(
        line.startswith("max-rss ") for line in lines[first:]), lines
    assert lines[first - 1].startswith("feature-cache  ") and not any(
        line.startswith("feature-cache") for line in lines[:first - 1]), lines
    return lines[:first - 1], lines[first:]


class TestThreads:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_both_sides_run_with_the_given_thread_count(self, tmp_path, monkeypatch, capsys,
                                                        threads):
        monkeypatch.setattr(identity, "worktree", _fake_worktree)
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setenv("NMFSEG_THREADS", "7")  # overridden on both sides
        monkeypatch.setattr(identity.tempfile, "tempdir", None)
        argv = ["parent-rev", "--threads", str(threads)]
        assert identity.main(argv) == 0
        lines, _ = _report(capsys.readouterr().out)
        stages = [argv[0] for argv in identity.pipeline(tmp_path / "out")]
        assert lines[-1] == f"{len(stages)} artifacts: {len(stages)} same, 0 moved (0 declared)"
        names = {line.split()[1].rsplit("/", 1)[-1] for line in lines[:-1]}
        assert names == {f"{stage}-threads-{threads}.txt" for stage in stages}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", ["0", "-1", "two"])
    def test_thread_count_must_be_a_positive_integer(self, raw, capsys):
        with pytest.raises(SystemExit) as info:
            identity.main(["HEAD", "--threads", raw])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err


# a stand-in CLI whose pretrain-dict touches 64 MB on the parent side, and
# whose train writes a different byte on each side
_RSS_CLI = """import sys
from pathlib import Path

def main():
    argv = sys.argv[1:]
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir(parents=True, exist_ok=True)
    if argv[0] == "pretrain-dict" and SIDE == "parent":
        held = bytearray(64 << 20)
        held[::4096] = b"x" * len(held[::4096])
    (out / f"{argv[0]}.txt").write_text(SIDE if argv[0] == "train" else argv[0])
"""

# Runs the tool in a small process of its own, on trees holding _RSS_CLI: a
# child's max RSS counts the image it was started from, and this process's
# image is the whole test session.
_RSS_DRIVER = """import importlib.util, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("identity", sys.argv[1])
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)

def worktree(rev, path):
    side = "parent" if rev == "parent-rev" else "change"
    package = path / "src" / "nmfseg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"SIDE = {side!r}\\n" + Path(sys.argv[2]).read_text())

identity.worktree = worktree
sys.exit(identity.main(sys.argv[3:]))
"""


class TestMaxRss:
    def _run(self, tmp_path, *args):
        (tmp_path / "cli.py").write_text(_RSS_CLI)
        (tmp_path / "driver.py").write_text(_RSS_DRIVER)
        (tmp_path / "work").mkdir(exist_ok=True)
        done = subprocess.run([sys.executable, str(tmp_path / "driver.py"), str(TOOL),
                               str(tmp_path / "cli.py"), "parent-rev", *args],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, TMPDIR=str(tmp_path / "work")))
        assert list((tmp_path / "work").iterdir()) == []
        return done

    def test_each_stage_reports_both_sides_after_the_artifacts(self, tmp_path):
        done = self._run(tmp_path)
        assert done.returncode == 1, done.stdout + done.stderr  # train.txt moved, undeclared
        lines, rss = _report(done.stdout)
        assert "moved  train.txt  (first difference at byte 0)" in lines
        stages = [argv[0] for argv in identity.pipeline(tmp_path)]
        assert lines[-1] == f"{len(stages)} artifacts: {len(stages) - 1} same, 1 moved (0 declared)"
        assert [line.split()[1] for line in rss] == stages
        mb = {line.split()[1]: (float(line.split()[3]), float(line.split()[6])) for line in rss}
        parent, change = mb.pop("pretrain-dict")
        assert parent >= 64 and parent - change >= 48, rss
        assert all(0 < a < 48 and 0 < b < 48 for a, b in mb.values()), rss
        assert self._run(tmp_path, "--declared", "train.txt").returncode == 0

    def test_failed_stage_exits_2_with_its_output(self, tmp_path, monkeypatch, capsys):
        def broken(rev, path):
            _tree(path / "src" / "nmfseg", {"__init__.py": b"",
                                            "cli.py": b"import sys\ndef main():\n"
                                                      b"    print('no corpus here')\n    sys.exit(3)\n"})

        monkeypatch.setattr(identity, "worktree", broken)
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(identity.tempfile, "tempdir", None)
        assert identity.main(["parent-rev"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stage gen-data exited 3" in captured.err and "no corpus here" in captured.err


def _has_head_commit() -> bool:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                              capture_output=True)
    except OSError:
        return False
    return done.returncode == 0


@pytest.mark.skipif(not _has_head_commit(), reason="needs a git checkout with a HEAD commit")
def test_head_against_itself_reports_every_artifact_same(tmp_path):
    """No hash is pinned: OpenBLAS picks its kernels per CPU, so only the two
    runs on this machine are compared."""
    done = subprocess.run([sys.executable, str(TOOL), "HEAD", "--shape", "small", "--seed", "5"],
                          capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert done.returncode == 0, done.stdout + done.stderr
    lines, rss = _report(done.stdout)
    assert [line.split()[1] for line in rss] == [argv[0] for argv in identity.pipeline(tmp_path)]
    artifacts = {line.split()[1] for line in lines[:-1]}
    assert all(line.startswith("same   ") for line in lines[:-1])
    for name in ("corpus/manifest.csv", "dictionary.nsd", "model.nsm", "trace.json",
                 "eval/f1.json", "segment/segment.run.json", "explain/summary.json",
                 "probe/probe_results.json", "ablate-beta/model_beta5.nsm", "report/report.json"):
        assert name in artifacts
    assert lines[-1] == f"{len(artifacts)} artifacts: {len(artifacts)} same, 0 moved (0 declared)"
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                               capture_output=True, text=True).stdout
    assert str(tmp_path) not in worktrees
    assert list(tmp_path.iterdir()) == []
