"""The component tables in DESIGN.md and PAPER.md name only real modules.

Each table row lists its modules in the second column as code spans.  A
span starting with ``repro/`` is a path under ``src/``; a bare file name
(``topology.py``) lives in the package of the first ``repro/<pkg>/`` path
in its row; ``repro/<pkg>/*`` names a whole package.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEADER = "| Subsystem | Module(s) | Notes |"


def _named_modules(doc: str) -> list[str]:
    """Every path named in the Module(s) column of ``doc``'s component table."""
    lines = (ROOT / doc).read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # skip the header and its rule
    paths = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        spans = re.findall(r"`([^`]+)`", line.split("|")[2])
        package = next(
            (m.group(0) for s in spans if (m := re.match(r"repro/\w+/", s))), None
        )
        for span in spans:
            if span.startswith("repro/"):
                paths.append(span)
            elif span.endswith(".py"):
                assert package is not None, f"{doc}: bare {span} in row {line!r}"
                paths.append(package + span)
    return paths


@pytest.mark.parametrize("doc", ["DESIGN.md", "PAPER.md"])
def test_component_table_modules_exist(doc):
    paths = _named_modules(doc)
    assert len(paths) > 20, f"{doc}: component table not found or nearly empty"
    missing = [
        p
        for p in paths
        if not (ROOT / "src" / p.removesuffix("*")).exists()
    ]
    assert not missing, f"{doc} names modules that do not exist: {missing}"
