import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
# Note on an import kept only so that the benchmark's tracer can wrap it.
TRACED_MARKER = "perfbench/spans.py traces this name here"


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

    def test_closed_stdout_ends_quietly_with_the_comparison_status(self, tmp_path):
        # Enough identical files that the listing overflows a 64 KiB pipe buffer.
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            for i in range(1000):
                (tmp_path / side / f"{i:04d}{'x' * 200}.csv").write_text("t\n")
        with open(tmp_path / "stderr", "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(SCRIPTS / "artifact_diff.py"), str(tmp_path / "a"), str(tmp_path / "b")],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
            assert proc.stdout.readline() == "identical: 1000 files\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        assert "Traceback" not in (tmp_path / "stderr").read_text()


class TestTrajectoryDigest:
    def test_out_writes_one_jsonl_per_run(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("trajectory_digest", SCRIPTS / "trajectory_digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        monkeypatch.setattr(digest, "SPECTRA", {"ellipse": digest.SPECTRA["ellipse"]})
        monkeypatch.setattr(digest, "FLOWS", ("pan-yang", "powersum:1,1,0"))
        monkeypatch.setattr(digest, "CONTROLS", {"default": digest.CONTROLS["default"]})
        monkeypatch.setattr(sys, "argv", ["trajectory_digest.py", "--quiet", "--out", str(tmp_path)])
        wrapped = (
            digest.HEAT.margins,
            digest.HEAT.flags,
            digest.INTEGRATE._narrow,
            digest.INTEGRATE._model_root,
            digest.ClosedLength.__call__,
        )
        assert digest.main() == 0
        out = capsys.readouterr().out.splitlines()
        total = next(line for line in out if line.startswith("runs 2 sha256")).split()[-1]
        # The same runs on one shared heat half hash the same.
        assert out[-1] == f"shared sha256 {total}"
        # The ellipse pinches under H = L after 3 scalar tests: the crossed
        # check time and the model's two probes, which close its singularity
        # bracket. Pan-yang flags none.
        assert "probes 3" in out
        # H = alpha L is unforced: pan-yang (alpha = 1/(2 pi)) and H = L alike.
        assert "laws unforced 2 forced 0" in out
        assert "singularity brackets model 1 plain 0" in out
        # Pan-yang scans its 201 check times in blocks of 32 and 169; H = L
        # pinches inside its first block of 32.
        assert "prescan blocks 3 columns 233" in out
        # The model's margin is evaluated at the bracket's two ends and at
        # 5 secant steps, on the law's exponential sum.
        assert "model steps 7" in out
        # Each run evaluates its law once at all 201 check times; only the 3
        # scalar tests evaluate it at one time, and the pinch run's last
        # state keeps the length its scalar test read.
        assert "closed-law evaluations arrays 2 times 402 scalars 3" in out
        # Run together, both flows scan the first block in one pre-scan
        # call; pan-yang alone scans the second.
        assert out[-3] == "shared prescan blocks 2"
        # Pan-yang reaches the horizon and builds the heat half's grid
        # columns; no later run reads them.
        assert out[-2] == "columns shared 0 of 1"
        restored = (
            digest.HEAT.margins,
            digest.HEAT.flags,
            digest.INTEGRATE._narrow,
            digest.INTEGRATE._model_root,
            digest.ClosedLength.__call__,
        )
        assert restored == wrapped
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ellipse__pan-yang__default.jsonl", "ellipse__powersum_1_1_0__default.jsonl"]
        records = [json.loads(line) for line in (tmp_path / names[1]).read_text().splitlines()]
        *states, last = records
        assert set(states[0]) == {"t", "L", "A"} and states[0]["t"] == 0.0
        assert last["event"]["kind"] == "singularity"
        assert last["event"]["t"] >= states[-1]["t"]


    def test_horizon_runs_after_the_first_read_the_shared_columns(self, monkeypatch, capsys):
        # Three flows that reach the horizon on the closed path and one that
        # pinches: the first horizon run builds the grid columns, the other
        # two read them.
        spec = importlib.util.spec_from_file_location("trajectory_digest", SCRIPTS / "trajectory_digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        monkeypatch.setattr(digest, "SPECTRA", {"ellipse": digest.SPECTRA["ellipse"]})
        monkeypatch.setattr(digest, "FLOWS", ("pan-yang", "powersum:1,1,0", "lin-tsai", "const:-1"))
        monkeypatch.setattr(digest, "CONTROLS", {"default": digest.CONTROLS["default"]})
        monkeypatch.setattr(sys, "argv", ["trajectory_digest.py", "--quiet"])
        assert digest.main() == 0
        out = capsys.readouterr().out.splitlines()
        assert "count reached-horizon 3" in out
        assert out[-2] == "columns shared 2 of 3"


class TestAbTrees:
    def test_a_tree_against_itself_prints_every_ratio(self):
        # A smoke run: the same checkout as both trees, one short pass.
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "ab_trees.py"), str(ROOT), str(ROOT),
             "--workload", "pinch-scan", "--passes", "1", "--jobs", "3"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        header, *rows = done.stdout.splitlines()
        assert header == "workload pinch-scan seed 1 jobs 3 passes 1"
        assert [row.split()[0] for row in rows] == ["job_ms_p50", "job_ms_p90", "integrations_per_s"]
        for row in rows:
            _, _, a, _, b, _, ratio = row.split()
            assert float(a) > 0.0 and float(b) > 0.0 and float(ratio) > 0.0

    def test_sweep_prints_the_p50_of_each_job_kind(self):
        # Jobs 0-2 of the sweep workload are flows axes and job 3 a scale axis.
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "ab_trees.py"), str(ROOT), str(ROOT),
             "--workload", "sweep", "--passes", "1", "--jobs", "4"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        header, *rows = done.stdout.splitlines()
        assert header == "workload sweep seed 1 jobs 4 passes 1"
        assert [row.split()[0] for row in rows] == [
            "job_ms_p50", "job_ms_p90", "integrations_per_s", "job_ms_p50[flows]", "job_ms_p50[scale]"
        ]
        for row in rows:
            _, _, a, _, b, _, ratio = row.split()
            assert float(a) > 0.0 and float(b) > 0.0 and float(ratio) == pytest.approx(float(b) / float(a), rel=1e-3)

    @staticmethod
    def load(monkeypatch):
        # The script puts the checkout on sys.path, which teardown undoes.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("ab_trees", SCRIPTS / "ab_trees.py")
        ab = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab)
        return ab

    def test_probe_runs_before_every_timed_job_and_its_process_ends(self, monkeypatch, capsys):
        ab = self.load(monkeypatch)
        entered, probes = [], []

        class Recorded(ab.Prober):
            def __enter__(self):
                entered.append(super().__enter__())
                return self

            def __call__(self):
                probes.append(super().__call__())
                return probes[-1]

        monkeypatch.setattr(ab, "Prober", Recorded)
        argv = [str(ROOT), str(ROOT), "--workload", "pinch-scan", "--passes", "2", "--jobs", "2", "--probe"]
        try:
            assert ab.main(argv) == 0
        finally:  # the trees, loaded as packages curveflow_a and curveflow_b
            for name in [name for name in sys.modules if name.split(".")[0] in ("curveflow_a", "curveflow_b")]:
                del sys.modules[name]
        assert capsys.readouterr().out.startswith("workload pinch-scan seed 1 jobs 2 passes 2\n")
        # One host probe on one thread before each of 2 trees x 2 jobs x 2 passes.
        assert len(entered) == 1 and entered[0].threads == 1
        assert len(probes) == 8 and all(ms > 0.0 for ms in probes)
        # The probe process has ended, and was waited for.
        assert entered[0]._proc.returncode == 0

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_a_usage_error(self, monkeypatch, capsys, jobs):
        ab = self.load(monkeypatch)
        with pytest.raises(SystemExit) as done:
            ab.main([str(ROOT), str(ROOT), "--workload", "pinch-scan", "--jobs", jobs])
        assert done.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


class TestSingularityScan:
    def test_every_amplitude_pinches_at_the_analytic_time(self, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("singularity_scan", SCRIPTS / "singularity_scan.py")
        scan = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan)
        monkeypatch.setattr(sys, "argv", ["singularity_scan.py"])
        assert scan.main() == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["a2", "event", "t_detected", "t_analytic", "gap"]
        assert len(rows) == 6
        for row in rows:
            _, kind, _, _, gap = row.split()
            # The gap is to the root at rho_min = singularity_eps, and these
            # pinches lie on a grid node: it measures the locator alone.
            assert kind == "singularity" and float(gap) <= 1e-9


class TestFlowGallery:
    def test_every_flow_writes_its_artifacts_and_one_table_row(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("flow_gallery", SCRIPTS / "flow_gallery.py")
        gallery = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gallery)
        out = tmp_path / "gallery"
        monkeypatch.setattr(sys, "argv", ["flow_gallery.py", "--t-max", "0.5", "--out", str(out)])
        assert gallery.main() == 0
        slugs = [text.replace(":", "_").replace(",", "-") for text in gallery.FLOWS]
        assert len(slugs) == 5 and sorted(p.name for p in out.iterdir()) == sorted(slugs)
        for slug in slugs:
            for name in ("timeseries.csv", "frames.jsonl", "reports.csv"):
                assert (out / slug / name).is_file(), (slug, name)
            assert list((out / slug / "anim").glob("*.svg")), slug
        lines = capsys.readouterr().out.splitlines()
        for text in gallery.FLOWS:
            assert sum(1 for line in lines if line.split()[:1] == [text]) == 1, text


class TestReadme:
    def test_library_example_runs_as_written(self, capsys):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("ConvergesToCircle(center=(0.0, 0.0), ")


def _imports(path: Path):
    """(bound name, source line) of every name a module imports."""
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], lines[alias.lineno - 1]


MODULES = sorted((ROOT / "src" / "curveflow").glob("*.py"))


def _private_definitions(tree: ast.Module):
    """Private names a module defines: module-level functions, classes and
    constants, and the methods of its classes."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


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

    def test_every_import_kept_for_the_tracer_is_patched(self, monkeypatch):
        # An import kept only so that the tracer can wrap it carries this
        # note; once no patch names it, it is dead and must go.
        monkeypatch.syspath_prepend(str(ROOT))
        patched = {(module, name) for module, name, _ in importlib.import_module("perfbench.spans").PATCHES}
        marked = [
            (f"curveflow.{path.stem}", name)
            for path in MODULES
            for name, line in _imports(path)
            if TRACED_MARKER in line
        ]
        assert marked
        assert [entry for entry in marked if entry not in patched] == []

    def test_every_import_is_used_or_kept_for_the_tracer(self):
        # Each import is used or carries the tracer's note, not both: a used
        # import is not kept only for the tracer, so its note is stale.
        wrong = []
        for path in MODULES:
            if path.name == "__init__.py":  # imports there are the public names
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            wrong += [
                f"{path.name}: {name}"
                for name, line in _imports(path)
                if (name in used) == (TRACED_MARKER in line)
            ]
        assert wrong == []

    def test_every_private_definition_is_referenced_in_the_package(self):
        # Only references from src/curveflow count: private code that only
        # tests reach is dead, such as a helper left behind by a refactor.
        trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
        referenced = set()
        for node in (node for tree in trees.values() for node in ast.walk(tree)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
        assert defined
        assert [f"{module}: {name}" for module, name in defined if name not in referenced] == []
