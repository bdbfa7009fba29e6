"""The line counter tools/src_lines.py: fixed counts and full coverage of each module."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring
on two lines."""

import math  # a trailing comment makes no comment line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        # another comment
        return (x +
                1)

    value = """not a docstring:
    an assigned string"""
'''


def test_classify_counts_a_fixed_source(src_lines):
    assert src_lines.classify(SOURCE) == {"code": 7, "docstring": 5, "comment": 2, "blank": 6}


def test_kinds_cover_every_line_of_every_module(src_lines):
    counts = src_lines.working_tree()
    paths = sorted((ROOT / src_lines.PACKAGE).glob("*.py"))
    assert sorted(counts) == [path.name for path in paths]
    for path in paths:
        lines = len(path.read_text(encoding="utf-8").splitlines())
        assert sum(counts[path.name].values()) == lines, path.name
