"""DESIGN.md §3's system inventory names modules that exist."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def _inventory_rows():
    """(first cell, "Key modules" cell) of every row of the §3 table."""
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        section = handle.read().split("\n## 3. ")[1].split("\n## ")[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| ") and cells[0] != "Subpackage":
            rows.append((cells[0], cells[-1]))
    return rows


def _is_module(dotted):
    path = os.path.join(PACKAGE, *dotted.split("."))
    return os.path.isfile(path + ".py") or os.path.isfile(
        os.path.join(path, "__init__.py")
    )


def test_every_key_module_is_a_file_under_src():
    rows = _inventory_rows()
    assert len(rows) > 10
    missing = []
    for first, modules in rows:
        package = re.match(r"`repro\.(\w+)`", first)
        for name in re.findall(r"`([\w.]+)`", modules):
            # Relative to the row's package, or dotted from ``repro``.
            candidates = [name]
            if package:
                candidates.append(f"{package.group(1)}.{name}")
            if not any(_is_module(candidate) for candidate in candidates):
                missing.append(f"{first}: {name}")
    assert missing == []
