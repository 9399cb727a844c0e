"""The public surface: every exported name resolves and has a caller."""

import re
from pathlib import Path

import chiralwalk
from chiralwalk.defaults import NumericDefaults

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves_and_has_a_caller():
    sources = [ROOT / "src" / "chiralwalk" / "cli.py"]
    sources += [path for path in (ROOT / "tests").rglob("*.py")
                if path.name != "__init__.py"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    unresolved = [name for name in chiralwalk.__all__ if not hasattr(chiralwalk, name)]
    uncalled = [name for name in chiralwalk.__all__
                if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unresolved == []
    assert uncalled == []


def test_every_default_has_a_reader():
    package = ROOT / "src" / "chiralwalk"
    text = "\n".join(path.read_text(encoding="utf-8") for path in package.glob("*.py")
                     if path.name != "defaults.py")
    unread = [name for name in NumericDefaults._fields
              if not re.search(rf"\bDEFAULTS\.{re.escape(name)}\b", text)]
    assert unread == []
