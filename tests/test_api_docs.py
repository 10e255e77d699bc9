"""``tools/gen_api_docs.py --check``: names the first stale line, writes nothing."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools import gen_api_docs  # noqa: E402


def test_check_names_first_stale_line(tmp_path, monkeypatch, capsys):
    target = tmp_path / "API.md"
    target.write_text("# title\nline 2\nline three")
    monkeypatch.setattr(gen_api_docs, "TARGET", target)
    assert gen_api_docs.check("# title\nline two\nline three") == 1
    out = capsys.readouterr().out
    assert "first difference at line 2" in out
    assert "committed: line 2" in out and "generated: line two" in out
    assert target.read_text() == "# title\nline 2\nline three"


def test_check_passes_when_current(tmp_path, monkeypatch):
    target = tmp_path / "API.md"
    target.write_text("# title\nbody")
    monkeypatch.setattr(gen_api_docs, "TARGET", target)
    assert gen_api_docs.check("# title\nbody") == 0
    # a generated text that only adds lines is stale too
    assert gen_api_docs.check("# title\nbody\nmore") == 1
