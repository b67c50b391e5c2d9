"""Shared scaffolding for the static-analysis tests.

``analyze_source`` runs the suite over a synthetic in-memory tree:
each entry maps a root-relative path (``repro/qat/mod.py``) to source
text, materialised in a tmp dir so :class:`SourceFile` sees a real
layout. Checkers under test are isolated with ``select``.
"""

from pathlib import Path

from repro.analysis import AnalysisContext, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"


def build_tree(tmp_path, files, readme=None):
    """Materialise ``{relpath: source}`` under ``tmp_path/src``."""
    root = tmp_path / "src"
    for relpath, text in files.items():
        p = root / relpath
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    readme_path = None
    if readme is not None:
        readme_path = tmp_path / "README.md"
        readme_path.write_text(readme, encoding="utf-8")
    return AnalysisContext.from_paths(root, readme_path=readme_path)


def analyze_source(tmp_path, files, select=None, readme=None):
    ctx = build_tree(tmp_path, files, readme=readme)
    return run_analysis(ctx, select=select)


def codes_of(result):
    return [f.code for f in result.findings]
