"""DESIGN.md §2's package inventory names exactly the modules in src/repro."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def inventory_paths() -> set:
    """Repo-relative paths of the files the §2 tree names.

    Each level of the tree is indented two more spaces; a name ending in
    ``/`` opens a directory for the lines indented under it.
    """
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("## 2. Package inventory", 1)[1].split("```")[1]
    stack: list = []
    paths = set()
    for line in block.strip("\n").splitlines():
        name = line.split()[0]
        del stack[(len(line) - len(line.lstrip())) // 2:]
        if name.endswith("/"):
            stack.append(name.rstrip("/"))
        else:
            paths.add("/".join(stack + [name]))
    return paths


def test_every_named_module_exists():
    missing = sorted(p for p in inventory_paths() if not (ROOT / p).is_file())
    assert not missing, f"DESIGN.md §2 names files that do not exist: {missing}"


def test_every_module_is_named():
    named = inventory_paths()
    unnamed = sorted(
        rel for rel in (p.relative_to(ROOT).as_posix()
                        for p in (ROOT / "src" / "repro").rglob("*.py")
                        if p.name != "__init__.py")
        if rel not in named)
    assert not unnamed, f"DESIGN.md §2 omits these modules: {unnamed}"
