"""The package must import on the oldest Python it supports.

``pyproject.toml`` declares ``requires-python = ">=3.9"`` and CI runs
tier-1 on 3.9, but a construct newer than 3.9 only fails there, at
import.  These guards need no 3.9 interpreter: every module under
``src/repro`` must parse with the 3.9 grammar, and no call may pass a
keyword argument that its callee only accepts from 3.10 on.
"""

import ast
import pathlib

SOURCE_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: callee name -> keyword arguments it accepts only from Python 3.10
NEWER_KEYWORDS = {
    "dataclass": {"slots", "kw_only"},
    "zip": {"strict"},
}


def _modules():
    return sorted(SOURCE_ROOT.rglob("*.py"))


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_sources_parse_with_the_python39_grammar():
    problems = []
    for path in _modules():
        try:
            ast.parse(path.read_text(), filename=str(path),
                      feature_version=(3, 9))
        except SyntaxError as error:
            problems.append(f"{path.relative_to(SOURCE_ROOT)}:"
                            f"{error.lineno}: {error.msg}")
    assert _modules() and problems == []


def test_no_keyword_arguments_newer_than_python39():
    problems = []
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            newer = NEWER_KEYWORDS.get(_callee(node), set())
            for keyword in node.keywords:
                if keyword.arg in newer:
                    problems.append(
                        f"{path.relative_to(SOURCE_ROOT)}:{node.lineno}: "
                        f"{_callee(node)}({keyword.arg}=...)")
    assert problems == []
