"""The knob table: every ``REPRO_*`` knob declared once, its surfaces derived.

``PINNED`` is a literal copy of the 12 knobs — name, environment variable,
flag, command-line choices and default — so a row changes only on purpose.
Every other test is table-driven over it: the CLI flags, the
``ExperimentConfig`` fields, override/env precedence and mirroring, error
messages, and agreement of ``spawn`` workers with the parent.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from pathlib import Path

import pytest

from repro import knobs
from repro.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.lint import SourceFile, all_rule_ids, iter_python_files
from repro.lint.rules.knob_flow import DEFAULT_EXCLUDE_PARTS
from repro.lint.semantics import Project
from repro.parallel import WorkerPool

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: (name, env var, flag, command-line choices or None for typed values, default)
PINNED = [
    ("backend", "REPRO_BACKEND", "--backend", ("auto", "dict", "csr"), "auto"),
    ("weighted", "REPRO_WEIGHTED", "--weighted", ("auto", "on", "off"), "auto"),
    ("workers", "REPRO_WORKERS", "--workers", None, 0),
    ("start_method", "REPRO_START_METHOD", "--start-method",
     ("fork", "spawn", "forkserver"), None),
    ("dag_cache", "REPRO_DAG_CACHE", "--dag-cache", ("on", "off"), True),
    ("dag_cache_size", "REPRO_DAG_CACHE_SIZE", "--dag-cache-size", None, 512),
    ("dag_cache_budget", "REPRO_DAG_CACHE_BUDGET", "--dag-cache-budget", None,
     16_000_000),
    ("dag_cache_delta", "REPRO_DAG_CACHE_DELTA", "--dag-cache-delta",
     ("auto", "on", "off"), "auto"),
    ("delta_journal_size", "REPRO_DELTA_JOURNAL_SIZE", "--delta-journal-size",
     None, 256),
    ("shared_memory", "REPRO_SHARED_MEMORY", "--shared-memory", ("on", "off"),
     True),
    ("snapshot_dir", "REPRO_SNAPSHOT_DIR", "--snapshot-dir", None, None),
    ("mmap", "REPRO_MMAP", "--mmap", ("auto", "on", "off"), "auto"),
]

#: Per row: (env text, the value it parses to, an override differing from
#: both that value and the default, its mirrored env text, a bad env text
#: — ``None`` where every non-empty text is valid — and a bad override).
SAMPLES = {
    "backend": ("csr", "csr", "dict", "dict", "gpu", "gpu"),
    "weighted": ("on", "on", "off", "off", "maybe", "maybe"),
    "workers": ("3", 3, 2, "2", "many", -1),
    "start_method": ("forkserver", "forkserver", "spawn", "spawn", "threads",
                     "threads"),
    "dag_cache": ("on", True, False, "0", "maybe", "off"),
    "dag_cache_size": ("64", 64, 33, "33", "huge", 0),
    "dag_cache_budget": ("123", 123, 44444, "44444", "-5", True),
    "dag_cache_delta": ("off", "off", "on", "on", "sometimes", "sometimes"),
    "delta_journal_size": ("17", 17, 9, "9", "0", 2.5),
    "shared_memory": ("yes", True, False, "0", "maybe", 1),
    "snapshot_dir": ("store-from-env", "store-from-env", "store-from-override",
                     "store-from-override", None, "  "),
    "mmap": ("off", "off", "on", "on", "sideways", "sideways"),
}

NAMES = [row[0] for row in PINNED]
BY_NAME = {knob.name: knob for knob in knobs.KNOBS}
COMMANDS = ("rank", "compare", "table", "figure")

_REPRO_LITERAL = re.compile(r"^REPRO_[A-Z0-9_]+$")


def test_table_is_the_pinned_list():
    table = [
        (
            knob.name,
            knob.env,
            knob.flag,
            knob.cli_options().get("choices"),
            knob.default,
        )
        for knob in knobs.KNOBS
    ]
    assert table == PINNED
    assert set(SAMPLES) == set(NAMES)


def _subcommand_actions(command):
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if action.dest == "command"
    )
    return subparsers.choices[command]._option_string_actions


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name,env,flag,choices,default", PINNED, ids=NAMES)
def test_flag_on_every_command(command, name, env, flag, choices, default):
    action = _subcommand_actions(command)[flag]
    assert action.dest == name
    assert action.default is None
    assert (tuple(action.choices) if action.choices else None) == choices


@pytest.mark.parametrize("name", NAMES)
def test_config_field_exists(name):
    fields = {field.name: field for field in dataclasses.fields(ExperimentConfig)}
    assert fields[name].default is None


@pytest.mark.parametrize("name", NAMES)
def test_override_beats_env_mirrors_and_restores(name, monkeypatch):
    knob = BY_NAME[name]
    env_text, env_value, override, mirrored, _, _ = SAMPLES[name]
    monkeypatch.setenv(knob.env, env_text)
    assert knob.resolve() == env_value
    knob.override(override)
    try:
        assert knob.resolve() == override
        assert os.environ[knob.env] == mirrored
    finally:
        knob.override(None)
    assert os.environ[knob.env] == env_text
    assert knob.resolve() == env_value


@pytest.mark.parametrize(
    "name", [name for name in NAMES if SAMPLES[name][4] is not None]
)
def test_bad_env_value_names_the_variable(name, monkeypatch):
    knob = BY_NAME[name]
    monkeypatch.setenv(knob.env, SAMPLES[name][4])
    with pytest.raises(ValueError, match=knob.env):
        knob.resolve()


@pytest.mark.parametrize("name", NAMES)
def test_bad_override_names_the_row(name):
    knob = BY_NAME[name]
    with pytest.raises(ValueError, match=name):
        knob.override(SAMPLES[name][5])
    assert knob.value is None


def _resolve_every_knob(payload, chunk):
    return {knob.name: knob.resolve() for knob in knobs.KNOBS}


@pytest.fixture(scope="module")
def spawn_worker_values():
    """Every row overridden in the parent, resolved in a ``spawn`` worker."""
    for knob in knobs.KNOBS:
        knob.override(SAMPLES[knob.name][2])
    try:
        assert knobs.START_METHOD.resolve() == "spawn"
        with WorkerPool(_resolve_every_knob) as pool:
            assert pool.workers == 2
            return pool.map([0, 1])[0]
    finally:
        for knob in knobs.KNOBS:
            knob.override(None)


@pytest.mark.parametrize("name", NAMES)
def test_spawn_worker_resolves_the_parent_override(name, spawn_worker_values):
    assert spawn_worker_values[name] == SAMPLES[name][2]


@pytest.mark.parametrize(
    "fields",
    [{"dag_cache": "off"}, {"shared_memory": "off"}, {"workers": True}],
    ids=["dag_cache-str", "shared_memory-str", "workers-bool"],
)
def test_config_rejects_mistyped_knob_values(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        ExperimentConfig(**fields)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--workers", "-1"),
        ("--dag-cache-size", "0"),
        ("--dag-cache-budget", "-5"),
        ("--delta-journal-size", "0"),
        ("--snapshot-dir", " "),
    ],
)
def test_cli_value_errors_are_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert all(knob.value is None for knob in knobs.KNOBS)


def test_runner_applies_every_row_but_workers():
    from repro.experiments.runner import ExperimentRunner

    config = ExperimentConfig(
        datasets=("karate",), scale=1.0, workers=2, mmap="off"
    )
    runner = ExperimentRunner(config)
    try:
        runner.dataset("karate")
        assert knobs.MMAP.value == "off"
        assert knobs.WORKERS.value is None
    finally:
        knobs.MMAP.override(None)


def _repro_literals():
    for path in sorted(SRC.rglob("*.py")):
        if "lint" in path.relative_to(SRC).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _REPRO_LITERAL.match(node.value):
                    yield path, node.value


def test_every_repro_literal_is_a_table_row():
    rows = {knob.env for knob in knobs.KNOBS}
    strays = [(str(path), value) for path, value in _repro_literals()
              if value not in rows]
    assert strays == []


def test_knob_flow_mints_exactly_the_table():
    # Repo-relative paths: the excluded parts must match inside the repo,
    # not in wherever it is checked out.
    known = set(all_rule_ids())
    sources = [
        SourceFile(
            str(Path(path).relative_to(REPO_ROOT)), Path(path).read_text(), known
        )
        for path in iter_python_files([str(SRC)])
    ]
    project = Project(sources)
    assert project.knob_names(DEFAULT_EXCLUDE_PARTS) == set(NAMES)
