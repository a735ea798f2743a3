"""Every text file the package reads or writes is UTF-8 whatever the locale:
each ``read_text``, ``write_text`` and text-mode ``open`` under
``src/radcal`` passes ``encoding=``, found with ``ast`` as
``test_dependencies`` finds the imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unencoded_calls(tree: ast.AST) -> list[int]:
    """The line of each text read or write in ``tree`` without ``encoding=``.
    ``fileio.write_text`` is the package's own writer and passes it itself."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode_at = 1
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text", "open"):
            if isinstance(func.value, ast.Name) and func.value.id in ("fileio", "os"):
                continue
            mode_at = 0 if func.attr == "open" else None  # Path.open(mode)
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        if mode_at is not None and len(node.args) > mode_at:
            modes.append(node.args[mode_at])
        binary = any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes)
        if not binary and all(kw.arg != "encoding" for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_finder_sees_each_kind_of_call():
    source = "\n".join([
        "Path(p).read_text()",
        "p.write_text(t)",
        "open(p)",
        "open(p, 'w')",
        "p.open(mode='r')",
        "open(p, 'rb')",
        "p.open('wb')",
        "p.read_text(encoding='utf-8')",
        "open(p, 'w', encoding='utf-8')",
        "fileio.write_text(p, t)",
        "os.open(p, flags)",
    ])
    assert unencoded_calls(ast.parse(source)) == [1, 2, 3, 4, 5]


def test_every_text_read_and_write_names_its_encoding():
    found = {}
    for path in sorted((ROOT / "src" / "radcal").glob("*.py")):
        lines = unencoded_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}
