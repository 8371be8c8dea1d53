"""The knob table: every ``REPRO_*`` knob declared once, its surfaces derived.

``PINNED`` is a literal copy of the 5 knobs — name, environment variable,
flag, command-line choices and default — so a row changes only on purpose.
Every other test is table-driven over it: the CLI flags, the
``ExperimentConfig`` fields, override/env precedence and mirroring, error
messages, and agreement of ``spawn`` workers with the parent.  ``REMOVED``
lists the rows that were deleted: their flags are usage errors and their
variables are not read.  Two syntax-tree walks close the table: every
``REPRO_*`` literal is a row, and only ``EnvMirroredOverride`` writes the
process environment.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re

import pytest

from repro import knobs
from repro.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.parallel import WorkerPool

#: (name, env var, flag, command-line choices or None for typed values, default)
PINNED = [
    ("backend", "REPRO_BACKEND", "--backend", ("auto", "dict", "csr"), "auto"),
    ("weighted", "REPRO_WEIGHTED", "--weighted", ("auto", "on", "off"), "auto"),
    ("workers", "REPRO_WORKERS", "--workers", None, 0),
    ("start_method", "REPRO_START_METHOD", "--start-method",
     ("fork", "spawn", "forkserver"), None),
    ("snapshot_dir", "REPRO_SNAPSHOT_DIR", "--snapshot-dir", None, None),
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
    "snapshot_dir": ("store-from-env", "store-from-env", "store-from-override",
                     "store-from-override", None, "  "),
}

#: Deleted rows: (name, env var, flag, a value the flag used to take, a
#: value its variable used to reject).
REMOVED = [
    ("shared_memory", "REPRO_SHARED_MEMORY", "--shared-memory", "off", "maybe"),
    ("dag_cache_budget", "REPRO_DAG_CACHE_BUDGET", "--dag-cache-budget",
     "44444", "-5"),
    ("delta_journal_size", "REPRO_DELTA_JOURNAL_SIZE", "--delta-journal-size",
     "64", "many"),
    ("dag_cache_delta", "REPRO_DAG_CACHE_DELTA", "--dag-cache-delta", "on",
     "sometimes"),
    ("dag_cache", "REPRO_DAG_CACHE", "--dag-cache", "off", "maybe"),
    ("dag_cache_size", "REPRO_DAG_CACHE_SIZE", "--dag-cache-size", "33",
     "huge"),
    ("mmap", "REPRO_MMAP", "--mmap", "off", "sideways"),
]

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
def test_env_text_is_trimmed_and_blank_means_unset(name, monkeypatch):
    knob = BY_NAME[name]
    env_text, env_value = SAMPLES[name][:2]
    if isinstance(knob, knobs.Choice):
        env_text = env_text.upper()  # choices ignore case in the environment
    monkeypatch.setenv(knob.env, f"  {env_text}\n")
    assert knob.resolve() == env_value
    monkeypatch.setenv(knob.env, "  ")
    assert knob.resolve() == knob.default


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
    [{"workers": "2"}, {"snapshot_dir": 5}, {"workers": True}],
    ids=["workers-str", "snapshot_dir-int", "workers-bool"],
)
def test_config_rejects_mistyped_knob_values(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        ExperimentConfig(**fields)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--workers", "-1"),
        ("--workers", "many"),
        ("--snapshot-dir", " "),
    ],
)
def test_cli_value_errors_are_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert all(knob.value is None for knob in knobs.KNOBS)


#: The required positionals of each subcommand.
COMMAND_ARGS = {"rank": [], "compare": [], "table": ["1"], "figure": ["3"]}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "name,env,flag,value,garbage", REMOVED, ids=[row[0] for row in REMOVED]
)
def test_removed_flag_is_a_usage_error(
    command, name, env, flag, value, garbage, capsys
):
    assert name not in BY_NAME
    assert name not in {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert flag not in _subcommand_actions(command)
    with pytest.raises(SystemExit) as excinfo:
        main([command, *COMMAND_ARGS[command], flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


#: Runs that pass through what the deleted rows configured: a csr rank on
#: a worker pool (executor and journal), baselines drawing source DAGs
#: from the default cache, and a ground-truth file under ``snapshot_dir``
#: (written by the first run, read by the second).
_QUERY = ["--dataset", "karate", "--subset-size", "6", "--epsilon", "0.2",
          "--delta", "0.1", "--seed", "3"]
REMOVED_READERS = {
    "rank-csr-workers": (["rank", *_QUERY, "--backend", "csr", "--workers",
                          "2"], "rank | node"),
    "compare-rk-abra": (["compare", *_QUERY, "--estimators", "rk,abra"],
                        "abra "),
    "compare-truth-hit": (["compare", *_QUERY, "--estimators", "rk",
                           "--snapshot-dir", "{store}"], "rk "),
}


@pytest.mark.requires_numpy
@pytest.mark.parametrize("run", list(REMOVED_READERS))
def test_removed_variables_are_not_read(run, tmp_path, monkeypatch, capsys):
    # Garbage that the deleted rows used to reject must not be read.  Each
    # run goes twice, so the truth run's second one reads the file.
    argv, marker = REMOVED_READERS[run]
    argv = [arg.format(store=tmp_path) for arg in argv]
    for _name, env, _flag, _value, garbage in REMOVED:
        monkeypatch.setenv(env, garbage)
    try:
        codes = [main(argv), main(argv)]
    finally:
        for knob in knobs.KNOBS:
            knob.override(None)
    assert codes == [0, 0]
    assert marker in capsys.readouterr().out
    if "--snapshot-dir" in argv:
        assert len(list((tmp_path / "ground_truth").glob("bt_*.json"))) == 1


#: Module-level names and function parameters that went with deleted rows.
REMOVED_NAMES = {
    "dag_cache_enabled", "set_dag_cache_enabled", "resolve_dag_cache_size",
    "set_default_dag_cache_size", "DAG_CACHE_ENV_VAR", "DAG_CACHE_SIZE_ENV_VAR",
    "effective_mmap", "resolve_mmap", "default_mmap", "set_default_mmap",
    "source_dag", "source_distance_map", "source_distance_rows",
}


def _defined_or_used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
            yield from (arg.arg for arg in ast.walk(node.args)
                        if isinstance(arg, ast.arg))
        elif isinstance(node, ast.ClassDef):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_removed_rows_leave_no_names_in_src(source_trees):
    # No setter, resolver or environment constant of a deleted row is left,
    # no pass-through wrapper of the always-on DAG cache, and no function
    # takes an ``mmap`` argument.
    strays = sorted(
        f"{path}: {name}"
        for path, tree in source_trees.items()
        if path.startswith("src/")
        for name in set(_defined_or_used_names(tree))
        if name in REMOVED_NAMES or name == "mmap" or name.startswith("MMAP_")
    )
    assert strays == []


def test_runner_applies_every_row_but_workers():
    from repro.experiments.runner import ExperimentRunner

    config = ExperimentConfig(
        datasets=("karate",), scale=1.0, workers=2, start_method="spawn"
    )
    runner = ExperimentRunner(config)
    try:
        runner.dataset("karate")
        assert knobs.START_METHOD.value == "spawn"
        assert knobs.WORKERS.value is None
    finally:
        knobs.START_METHOD.override(None)


def test_every_repro_literal_is_a_table_row(source_trees):
    rows = {knob.env for knob in knobs.KNOBS}
    strays = [
        (path, node.value)
        for path, tree in source_trees.items()
        if path.startswith("src/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _REPRO_LITERAL.match(node.value)
        and node.value not in rows
    ]
    assert strays == []


#: ``os.environ`` methods that change the process environment.
_ENVIRON_WRITES = {"pop", "setdefault", "update", "clear", "__setitem__"}


def _is_os_environ(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _writes_environ(node):
    """True when ``node`` changes the process environment."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr in ("putenv", "unsetenv"):
            return isinstance(func.value, ast.Name) and func.value.id == "os"
        return func.attr in _ENVIRON_WRITES and _is_os_environ(func.value)
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Subscript) and _is_os_environ(target.value)
        for target in targets
    )


def _env_writes(tree, allowed_class=None):
    """Lines of ``tree`` that write the process environment, outside the
    body of a class named ``allowed_class``."""
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == allowed_class
        for inner in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed and _writes_environ(node)
    ]


def test_environment_is_written_only_by_the_mirror(source_trees):
    # A direct write bypasses the override's bookkeeping: spawn workers
    # inherit a value no knob tracks, and nothing restores it afterwards.
    strays = []
    for path, tree in source_trees.items():
        allowed = "EnvMirroredOverride" if path == "src/repro/knobs.py" else None
        strays.extend(f"{path}:{line}" for line in _env_writes(tree, allowed))
    assert strays == []


ENV_WRITE_KINDS = {
    "assign": 'os.environ["SOME_VAR"] = value',
    "del": 'del os.environ["SOME_VAR"]',
    "pop": 'os.environ.pop("SOME_VAR", None)',
    "update": "os.environ.update(values)",
    "putenv": 'os.putenv("SOME_VAR", value)',
    "setdefault": 'os.environ.setdefault("SOME_VAR", value)',
    "clear": "os.environ.clear()",
    "setitem": 'os.environ.__setitem__("SOME_VAR", value)',
    "unsetenv": 'os.unsetenv("SOME_VAR")',
    "augassign": 'os.environ["SOME_VAR"] += value',
    "annassign": 'os.environ["SOME_VAR"]: str = value',
}


@pytest.mark.parametrize(
    "statement", list(ENV_WRITE_KINDS.values()), ids=list(ENV_WRITE_KINDS)
)
def test_env_write_check_sees_each_write_kind(statement):
    assert _env_writes(ast.parse(statement)) == [1]
    inside = ast.parse(
        f"class EnvMirroredOverride:\n    def set(self):\n        {statement}\n"
    )
    assert _env_writes(inside, "EnvMirroredOverride") == []


#: Reads of the environment, and writes to a copy of it (how tests build
#: a child process's environment), which the check must let through.
ENV_READS = {
    "get": 'value = os.environ.get("SOME_VAR")',
    "subscript": 'value = os.environ["SOME_VAR"]',
    "getenv": 'value = os.getenv("SOME_VAR")',
    "membership": 'found = "SOME_VAR" in os.environ',
    "copy-then-write": 'env = os.environ.copy()\nenv["SOME_VAR"] = value',
    "dict-then-pop": 'env = dict(os.environ)\nenv.pop("SOME_VAR", None)',
}


@pytest.mark.parametrize("source", list(ENV_READS.values()), ids=list(ENV_READS))
def test_env_write_check_ignores_reads_and_copies(source):
    assert _env_writes(ast.parse(source)) == []


def test_env_write_check_exempts_only_the_mirror_class():
    tree = ast.parse(
        "class EnvMirroredOverride:\n"
        "    def set(self, value):\n"
        '        os.environ["SOME_VAR"] = value\n'
        "class OtherOverride:\n"
        "    def set(self, value):\n"
        '        os.environ["SOME_VAR"] = value\n'
        "def helper(value):\n"
        '    os.environ["SOME_VAR"] = value\n'
    )
    assert sorted(_env_writes(tree, "EnvMirroredOverride")) == [6, 8]
    assert sorted(_env_writes(tree)) == [3, 6, 8]
