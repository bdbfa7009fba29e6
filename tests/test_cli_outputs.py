"""The CLI output recorder tools/cli_outputs.py."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def cli_outputs():
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_two_runs_write_identical_directories(cli_outputs, tmp_path):
    runs = cli_outputs.invocations()
    subset = [runs[2], next(argv for argv in runs if "@dense-41" in argv)]
    assert subset[0][:2] == ["mixing", "--mode"] and "0.125" in subset[0]
    first, second = tmp_path / "first", tmp_path / "second"
    cli_outputs.write_outputs(first, subset)
    cli_outputs.write_outputs(second, subset)
    files = _files(first)
    assert files == _files(second)
    stems = [cli_outputs.name_of(argv) for argv in subset]
    expect = [f"{stem}.{ext}" for stem in stems for ext in ("err", "exit")] + [f"{stems[0]}.out"]
    assert sorted(files) == sorted(expect)
    assert files[f"{stems[0]}.exit"] == b"0\n" and files[f"{stems[0]}.err"] == b""
    assert files[f"{stems[1]}.exit"] == b"2\n"
    assert files[f"{stems[1]}.err"].startswith(b"budget refusal: 42 states exceed")


def test_every_invocation_has_its_own_files(cli_outputs):
    names = [cli_outputs.name_of(argv) for argv in cli_outputs.invocations()]
    assert len(set(names)) == len(names) == 272
