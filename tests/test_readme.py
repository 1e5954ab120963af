"""README's config tables must match the schemas the runners enforce."""

import json
import re
from pathlib import Path

import pytest

from equilab.bench.config import KINDS, REQUIRED, SCHEMAS

README = Path(__file__).resolve().parents[1] / "README.md"

_SECTION = re.compile(r"^### `(\w+)`$")
_ROW = re.compile(r"^\| `(\w+)` \| (\w+) \| ([^|]+) \|")


def readme_tables():
    """{kind: {key: (type name, default)}} from the `### `<kind>`` tables;
    defaults are parsed as JSON after stripping backticks."""
    tables = {}
    kind = None
    for line in README.read_text(encoding="utf-8").splitlines():
        head = _SECTION.match(line)
        if head:
            kind = head.group(1)
            tables[kind] = {}
        elif line.startswith("#"):
            kind = None
        elif kind is not None:
            row = _ROW.match(line)
            if row:
                key, type_name, default = row.groups()
                tables[kind][key] = (type_name, json.loads(default.strip().strip("`")))
    return tables


def test_every_kind_has_a_table():
    assert sorted(readme_tables()) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_table_matches_schema(kind):
    documented = readme_tables()[kind]
    schema = {key: (want.__name__, default) for key, (want, default) in SCHEMAS[kind].items()
              if default is not REQUIRED}
    assert sorted(documented) == sorted(schema)
    for key, (type_name, default) in documented.items():
        want_name, want_default = schema[key]
        assert type_name == want_name, key
        assert default == want_default and type(default) is type(want_default), key
