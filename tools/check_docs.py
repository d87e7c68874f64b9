"""Check that the documentation's links and cross-references resolve.

Walks ``README.md`` and ``docs/*.md``, extracts inline links
(``[text](target)``), and fails when a relative target — optionally carrying
a ``#fragment`` — does not exist on disk.  External links (``http://``,
``https://``, ``mailto:``) are accepted without network access, and bare
anchors (``#section``) are checked against the headings of the same file.

It also imports every Sphinx-style cross-reference to the package
(``:class:`~repro.graph.Graph```, ``:meth:`text <repro.….name>```, and the
``:func:``, ``:attr:``, ``:data:`` and ``:mod:`` roles) found in the
docstrings under ``src/``, in ``README.md`` and in ``docs/*.md``, and fails
when the named module or attribute does not exist.  A reference may wrap
across lines.

An unqualified reference in a ``src/`` module (``:class:`Graph```,
``:meth:`Graph.plan```, ``:attr:`relation_edges```) is resolved against that
module, in this order: its globals, the builtins, importable dotted names,
then the members of the classes it defines — methods, properties, dataclass
fields and ``self.x = …`` assignments, inherited ones included.  A dotted
reference resolves its first name that way and the rest as attributes or
instance attributes.  A markdown file has no module context, so only its
``repro.…`` references are checked.  The package must be importable
(``PYTHONPATH=src``).

Usage::

    PYTHONPATH=src python tools/check_docs.py            # repo root inferred
    PYTHONPATH=src python tools/check_docs.py --root .   # explicit repo root
"""

from __future__ import annotations

import argparse
import ast
import builtins
import functools
import importlib
import inspect
import re
import sys
from pathlib import Path

# Inline markdown links, skipping images; code spans are stripped first.
_LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`[^`]*`")
_FENCE = re.compile(r"^(```|~~~)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
# A role, its backticked target, and an optional ``text <target>`` form.
_XREF = re.compile(r":(?:class|func|meth|attr|data|mod):`([^`]+)`")
_XREF_TARGET = re.compile(r"<([^<>]+)>\s*$")


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a heading line."""
    text = _CODE_SPAN.sub(lambda m: m.group(0).strip("`"), heading.strip())
    text = re.sub(r"[^\w\s-]", "", text.lower())
    return re.sub(r"[\s]+", "-", text).strip("-")


def _document_lines(path: Path) -> list[str]:
    """The file's lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    for line in path.read_text().splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def _anchors_of(path: Path) -> set[str]:
    anchors = set()
    for line in _document_lines(path):
        match = _HEADING.match(line)
        if match:
            anchors.add(_slugify(match.group(1)))
    return anchors


def check_file(path: Path) -> list[str]:
    errors = []
    for number, line in enumerate(_document_lines(path), start=1):
        for target in _LINK.findall(_CODE_SPAN.sub("", line)):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            if not base:
                if fragment and _slugify(fragment) not in _anchors_of(path):
                    errors.append(f"{path}:{number}: missing anchor #{fragment}")
                continue
            resolved = (path.parent / base).resolve()
            if not resolved.exists():
                errors.append(f"{path}:{number}: broken link {target!r}")
                continue
            if fragment and resolved.suffix == ".md":
                if _slugify(fragment) not in _anchors_of(resolved):
                    errors.append(
                        f"{path}:{number}: missing anchor #{fragment} in {base}"
                    )
    return errors


def _resolves(target: str) -> bool:
    """Whether ``repro.a.b.C.name`` imports: the longest importable module
    prefix, then attribute (or instance attribute) lookups for the rest."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not _has_member(obj, name):
                return False
            obj = getattr(obj, name, None)
        return True
    return False


@functools.lru_cache(maxsize=None)
def _instance_attributes(cls: type) -> frozenset:
    """Names a class and its bases assign as ``self.x = …`` or annotate in
    their bodies (dataclass fields without a default are not class attributes)."""
    names = set()
    for klass in cls.__mro__:
        try:
            tree = ast.parse(inspect.cleandoc("\n" + inspect.getsource(klass)))
        except (OSError, TypeError, SyntaxError):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for leaf in ast.walk(target):
                    if (isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name)
                            and leaf.value.id == "self"):
                        names.add(leaf.attr)
    return frozenset(names)


def _has_member(obj, name: str) -> bool:
    return hasattr(obj, name) or (inspect.isclass(obj) and name in _instance_attributes(obj))


def _resolves_in(module, target: str) -> bool:
    """Whether an unqualified ``target`` resolves in ``module`` (see the
    module docstring for the order)."""
    head, *rest = target.split(".")
    if hasattr(module, head):
        obj = getattr(module, head)
    elif hasattr(builtins, head):
        obj = getattr(builtins, head)
    elif _resolves(target):
        return True
    else:
        classes = [value for value in vars(module).values()
                   if inspect.isclass(value) and value.__module__ == module.__name__]
        return not rest and any(_has_member(cls, head) for cls in classes)
    for name in rest:
        if not _has_member(obj, name):
            return False
        obj = getattr(obj, name, None)
    return True


def _module_of(path: Path):
    """The imported module of a file under ``src/``, or ``None`` elsewhere."""
    parts = path.with_suffix("").parts
    if "src" not in parts:
        return None
    names = list(parts[len(parts) - parts[::-1].index("src"):])
    if names[-1] == "__init__":
        names.pop()
    return importlib.import_module(".".join(names))


def check_xrefs(path: Path) -> tuple[list[str], int]:
    """Unresolvable cross-references in one file, and how many it has: every
    ``repro.…`` one, and in a ``src/`` module the unqualified ones too."""
    text = path.read_text()
    module = _module_of(path) if path.suffix == ".py" else None
    errors, count = [], 0
    for match in _XREF.finditer(text):
        body = match.group(1)
        inner = _XREF_TARGET.search(body)
        target = re.sub(r"\s+", "", inner.group(1) if inner else body).lstrip("~")
        if target.startswith("repro."):
            resolves = _resolves(target)
        elif module is not None:
            resolves = _resolves_in(module, target)
        else:
            continue
        count += 1
        if not resolves:
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{path}:{line}: unresolvable reference {target!r}")
    return errors, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: the parent of this script's directory)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parent.parent

    files = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    missing = [str(f) for f in files if not f.exists()]
    if missing:
        print(f"error: expected documentation files are absent: {missing}")
        return 2

    errors = []
    for path in files:
        errors.extend(check_file(path))
    print(f"checked {len(files)} files: {len(errors)} broken link(s)")

    xref_files = sorted((root / "src").rglob("*.py")) + files
    xref_errors, xrefs = [], 0
    for path in xref_files:
        found, count = check_xrefs(path)
        xref_errors.extend(found)
        xrefs += count
    print(f"checked {xrefs} cross-references in {len(xref_files)} files: "
          f"{len(xref_errors)} unresolvable")
    for error in errors + xref_errors:
        print(error)
    return 1 if errors or xref_errors else 0


if __name__ == "__main__":
    sys.exit(main())
