import ast
import re
from pathlib import Path

import memxl
from memxl.config import KNOWN_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports_from_memxl() -> set[str]:
    """Names that a ```python block in the README imports ``from memxl``."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "memxl":
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_resolves():
    missing = [name for name in memxl.__all__ if not hasattr(memxl, name)]
    assert missing == []


def test_readme_examples_import_only_exported_names():
    imported = readme_imports_from_memxl()
    assert imported, "README has no python block importing from memxl"
    assert sorted(imported - set(memxl.__all__)) == []


def readme_config_table_keys() -> list[str]:
    """Keys in backticks in the README's "Config keys" table, without the
    parenthesised schedule variant names."""
    section = README.read_text().split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith("| group")]
    return [key for row in rows for span in re.findall(r"`([^`]*)`", re.sub(r"\(.*?\)", "", row))
            for key in span.split()]


def test_readme_config_table_lists_exactly_the_known_keys():
    keys = readme_config_table_keys()
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(KNOWN_KEYS)
