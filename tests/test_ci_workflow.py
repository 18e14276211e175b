"""The CI workflow's seeded-suite matrix against what the tests actually read.

Six seeded torture suites share one ``seeded-suites`` job: an ``include``
row per suite names its test directory, the environment variable that
shifts its randomness and its failure artifact, and every row runs under
seeds 0-2.  A seed variable that no row sets (or that a row sets for the
wrong directory) would silently run every CI cell on seed 0, so the
pairing is pinned here rather than trusted.

The paper's evaluation has one harness (``python -m repro.experiments``,
asserted by ``tests/experiments/``); the pytest-benchmark wrappers that
once duplicated it, their plugin and their scale variable are pinned out.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
#: ``os.environ.get("<NAME>_SEED"`` / ``os.environ["<NAME>_SEED"]`` in a test module
SEED_READ = re.compile(r"""environ(?:\.get\(|\[)\s*["'](\w+_SEED)["']""")


@pytest.fixture(scope="module")
def job() -> dict:
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]["seeded-suites"]


def seed_reads() -> list[tuple[str, str]]:
    """Every ``(variable, repo-relative file)`` the test tree reads a seed from."""
    found = []
    for path in sorted((REPO / "tests").rglob("*.py")):
        for variable in SEED_READ.findall(path.read_text()):
            found.append((variable, path.relative_to(REPO).as_posix()))
    return found


def test_the_matrix_is_six_suites_by_three_seeds(job):
    matrix = job["strategy"]["matrix"]
    rows = matrix["include"]
    assert matrix["seed"] == [0, 1, 2]
    assert len(matrix["suite"]) * len(matrix["seed"]) == 18
    # each include row decorates exactly the cells of one listed suite
    assert sorted(row["suite"] for row in rows) == sorted(matrix["suite"])
    for row in rows:
        assert set(row) == {"suite", "path", "seed_env", "artifact"}
        assert (REPO / row["path"]).is_dir(), row
    for key in ("path", "seed_env", "artifact"):
        assert len({row[key] for row in rows}) == len(rows), key
    assert job["strategy"]["fail-fast"] is False


def test_every_seed_variable_the_tests_read_is_set_by_its_own_row(job):
    rows = job["strategy"]["matrix"]["include"]
    reads = seed_reads()
    assert {variable for variable, _ in reads} == {row["seed_env"] for row in rows}
    for variable, reader in reads:
        setters = [row for row in rows if row["seed_env"] == variable]
        assert len(setters) == 1, (variable, setters)
        assert reader.startswith(setters[0]["path"]), (variable, reader, setters[0])


def test_the_run_step_wires_the_row_into_the_command(job):
    (run,) = (step for step in job["steps"] if "-m pytest" in step.get("run", ""))
    command = run["run"]
    assert '"${{ matrix.seed_env }}=${{ matrix.seed }}"' in command
    assert "pytest ${{ matrix.path }}" in command
    assert run["env"] == {"CHAOS_TRACE": "chaos-trace.jsonl", "FLIGHT_DIR": "flight-dumps"}
    (upload,) = (step for step in job["steps"] if "upload-artifact" in step.get("uses", ""))
    assert upload["if"] == "failure()"
    assert upload["with"]["name"] == "${{ matrix.artifact }}-seed-${{ matrix.seed }}"
    assert upload["with"]["path"].split() == ["chaos-trace.jsonl", "flight-dumps/"]


def test_no_other_job_sets_a_seed_variable():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    for name, other in jobs.items():
        if name != "seeded-suites":
            assert "_SEED" not in yaml.safe_dump(other), name


def test_no_ci_step_installs_pytest_benchmark():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    installs = [
        step["run"]
        for job in jobs.values()
        for step in job["steps"]
        if "pip install" in step.get("run", "")
    ]
    assert installs, "no install step found: the test is blind"
    assert not [run for run in installs if "pytest-benchmark" in run]


def test_the_test_extra_does_not_list_pytest_benchmark():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())
    assert "pytest" in project["project"]["optional-dependencies"]["test"]
    assert "pytest-benchmark" not in project["project"]["optional-dependencies"]["test"]
    assert project["tool"]["pytest"]["ini_options"]["python_files"] == ["test_*.py"]


def test_no_test_requests_a_benchmark_fixture_or_reads_its_scale_variable():
    scanned = []
    for root in ("tests", "benchmarks"):
        for path in sorted((REPO / root).rglob("*.py")):
            text = path.read_text()
            scanned.append(path.relative_to(REPO).as_posix())
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
                    assert "benchmark" not in params, (scanned[-1], node.name)
            if path != Path(__file__).resolve():
                assert "REPRO_BENCH_SCALE" not in text, scanned[-1]
    assert "benchmarks/bench_obs_overhead.py" in scanned, "the scan is blind"
