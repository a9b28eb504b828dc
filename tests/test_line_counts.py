"""tools/line_counts.py sorts every line of a file into exactly one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_line_kinds_add_up_to_each_files_line_count():
    spec = importlib.util.spec_from_file_location("line_counts",
                                                  ROOT / "tools" / "line_counts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    paths = list(tool.files([ROOT / "src" / "recirc", ROOT / "tools"]))
    assert paths
    for path in paths:
        source = path.read_text()
        assert sum(tool.count(source).values()) == len(source.splitlines()), path
    # a blank line inside a docstring is docstring
    source = 'def f():\n    """One.\n\n    Two."""\n\n    # note\n    return 1\n'
    assert tool.count(source) == {"code": 2, "docstring": 3, "comment": 1, "blank": 1}
