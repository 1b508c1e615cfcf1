import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def artifact_diff(dir_a, dir_b):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "artifact_diff.py"), str(dir_a), str(dir_b)],
        capture_output=True,
        text=True,
    )


class TestArtifactDiff:
    def test_identical_directories(self, tmp_path):
        for side in ("a", "b"):
            (tmp_path / side / "sub").mkdir(parents=True)
            (tmp_path / side / "sub" / "t.csv").write_text("t,L\n0.0,1.0\n")
        done = artifact_diff(tmp_path / "a", tmp_path / "b")
        assert done.returncode == 0
        assert done.stdout.splitlines() == ["identical: 1 files", "  sub/t.csv"]

    def test_per_column_and_per_key_differences(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "t.csv").write_text("t,k,ok\n0.0,2.0,true\n1.0,4.0,true\n")
        (b / "t.csv").write_text("t,k,ok\n0.0,2.0,true\n1.0,5.0,false\n")
        (a / "f.jsonl").write_text('{"x": [1.0, 2.0], "event": {"t": null}}\n')
        (b / "f.jsonl").write_text('{"x": [1.0, 2.5], "event": {"t": null}}\n')
        (a / "only.svg").write_text("<svg/>")
        done = artifact_diff(a, b)
        assert done.returncode == 1
        lines = done.stdout.splitlines()
        assert "only in DIR_A: only.svg" in lines
        assert "  k: max_abs 1  max_rel 0.2  mismatches 0" in lines
        assert "  ok: max_abs 0  max_rel 0  mismatches 1" in lines
        assert "  x: max_abs 0.5  max_rel 0.2  mismatches 0" in lines
        assert not any(line.startswith(("  t:", "  event.t:")) for line in lines)


class TestTrajectoryDigest:
    def test_out_writes_one_jsonl_per_run(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("trajectory_digest", SCRIPTS / "trajectory_digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        monkeypatch.setattr(digest, "SPECTRA", {"ellipse": digest.SPECTRA["ellipse"]})
        monkeypatch.setattr(digest, "FLOWS", ("pan-yang", "powersum:1,1,0"))
        monkeypatch.setattr(digest, "CONTROLS", {"default": digest.CONTROLS["default"]})
        monkeypatch.setattr(sys, "argv", ["trajectory_digest.py", "--quiet", "--out", str(tmp_path)])
        assert digest.main() == 0
        assert "runs 2 sha256" in capsys.readouterr().out
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ellipse__pan-yang__default.jsonl", "ellipse__powersum_1_1_0__default.jsonl"]
        records = [json.loads(line) for line in (tmp_path / names[1]).read_text().splitlines()]
        *states, last = records
        assert set(states[0]) == {"t", "L", "A"} and states[0]["t"] == 0.0
        assert last["event"]["kind"] == "singularity"
        assert last["event"]["t"] >= states[-1]["t"]


class TestPerfbenchPatches:
    def test_every_patched_name_resolves(self, monkeypatch):
        # The benchmark's tracer wraps these names; each must still exist
        # where it looks for it, or a traced benchmark run fails.
        monkeypatch.syspath_prepend(str(ROOT))
        patches = importlib.import_module("perfbench.spans").PATCHES
        assert patches
        for module_name, name, _ in patches:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
