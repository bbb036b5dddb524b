"""The line-reach gate's own parts: its enumerator on a toy module, and its
committed list against the package's source."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import line_reach
import tnbpa

TOY = """\
LIMIT = 0


class Sign:
    def of(self, x):
        if x < LIMIT:
            return -1
        return 1
"""


def test_the_enumerator_finds_the_one_unreached_branch(tmp_path):
    # Module and class bodies are not counted; of the method's lines only
    # the branch that the call does not take is unreached.
    root = tmp_path / "toy"
    root.mkdir()
    path = root / "mod.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy_mod", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)

    line_reach._TARGETS.add(str(path))
    previous = sys.gettrace()
    sys.settrace(line_reach._trace)
    try:
        assert toy.Sign().of(1) == 1
    finally:
        sys.settrace(previous)
        line_reach._TARGETS.discard(str(path))
    assert line_reach.unreached(root, line_reach._REACHED) == ["toy/mod.py: Sign.of: return -1"]


def test_every_listed_entry_names_a_line_of_the_package():
    root = Path(tnbpa.__file__).parent
    lines = Counter(
        entry
        for path in root.rglob("*.py")
        for entry in line_reach.function_lines(path, path.relative_to(root.parent).as_posix()).values()
    )
    listed = Counter(line_reach.read_list())
    assert listed and listed - lines == Counter()
