"""Generate docs/API.md from the package's docstrings.

Usage:  python tools/gen_api_docs.py            # rewrite docs/API.md
        python tools/gen_api_docs.py --check    # exit 1 if it is stale

Walks every ``repro`` subpackage, collects the public symbols each
exports, and emits a structured markdown reference: package docstring,
then one entry per public class/function with its signature and the first
paragraph of its docstring.  ``--check`` writes nothing: it compares the
generated text with the committed file and, when they differ, names the
first differing line and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

TARGET = Path(__file__).resolve().parent.parent / "docs" / "API.md"

PACKAGES = [
    "repro",
    "repro.api",
    "repro.geometry",
    "repro.layout",
    "repro.gdsii",
    "repro.tech",
    "repro.obs",
    "repro.parallel",
    "repro.service",
    "repro.matrix",
    "repro.drc",
    "repro.patterns",
    "repro.litho",
    "repro.opc",
    "repro.dpt",
    "repro.yieldmodels",
    "repro.cmp",
    "repro.timing",
    "repro.designgen",
    "repro.extract",
    "repro.variation",
    "repro.ruleopt",
    "repro.core",
    "repro.analysis",
]


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    lines = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip() and lines:
            break
        if line.strip():
            lines.append(line.strip())
    return " ".join(lines)


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def document_symbol(name: str, obj) -> list[str]:
    out = []
    if inspect.isclass(obj):
        out.append(f"#### `class {name}`\n")
        out.append(first_paragraph(obj.__doc__) + "\n")
        methods = [
            (m_name, m)
            for m_name, m in inspect.getmembers(obj, predicate=inspect.isfunction)
            if not m_name.startswith("_") and m.__qualname__.startswith(obj.__name__)
        ]
        for m_name, m in sorted(methods):
            out.append(f"- `.{m_name}{signature_of(m)}` — {first_paragraph(m.__doc__)}")
        if methods:
            out.append("")
    elif inspect.isfunction(obj):
        out.append(f"#### `{name}{signature_of(obj)}`\n")
        out.append(first_paragraph(obj.__doc__) + "\n")
    else:
        out.append(f"#### `{name}`\n")
        out.append(first_paragraph(getattr(obj, "__doc__", None)) + "\n")
    return out


def render() -> str:
    """The full text of docs/API.md."""
    lines = [
        "# repro API reference",
        "",
        "*Generated by `python tools/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`\n")
        # package docstrings are the section intros: keep them whole
        doc = module.__doc__
        lines.append((inspect.cleandoc(doc) if doc else "*(undocumented)*") + "\n")
        exported = getattr(module, "__all__", [])
        if package_name == "repro":
            lines.append(
                f"Top-level re-exports ({len(exported)} symbols) — see the "
                "subpackage sections for details.\n"
            )
            continue
        for name in exported:
            obj = getattr(module, name)
            lines.extend(document_symbol(name, obj))
        lines.append("")
    return "\n".join(lines)


def check(text: str) -> int:
    """0 when docs/API.md equals ``text``; else name the first differing
    line and return 1."""
    current = TARGET.read_text() if TARGET.exists() else ""
    if current == text:
        print(f"{TARGET} is up to date")
        return 0
    want, have = text.splitlines(), current.splitlines()
    for lineno, (a, b) in enumerate(zip(want, have), start=1):
        if a != b:
            break
    else:
        lineno = min(len(want), len(have)) + 1
    print(f"{TARGET} is stale; first difference at line {lineno}:")
    print(f"  committed: {have[lineno - 1] if lineno <= len(have) else '<end of file>'}")
    print(f"  generated: {want[lineno - 1] if lineno <= len(want) else '<end of file>'}")
    print("regenerate it with: python tools/gen_api_docs.py")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate docs/API.md from docstrings.")
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if docs/API.md differs from the generated text",
    )
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        return check(text)
    TARGET.parent.mkdir(exist_ok=True)
    TARGET.write_text(text)
    print(f"wrote {TARGET} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
