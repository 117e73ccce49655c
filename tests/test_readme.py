"""The README's library quick start runs as written, its config text names
the fields the model constructors declare, and the cache schema it and the
cache module name is ``CACHE_SCHEMA``."""

from __future__ import annotations

import json
import re
from pathlib import Path

from mlcv import cache, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("RateFit(alpha=")
    # the two single runs and the three tolerances of the multi-plan run
    assert len(out.splitlines()) == 6


def test_config_fields_are_the_constructor_parameters():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Config fields beyond the example:.*?\(fields: (.*?);", text, re.S)
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(cli._MODEL_FIELDS["diffusion_1d"])
    blocks = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    example = json.loads(blocks[0])
    model = example["model"]
    assert model["name"] == "synthetic_low_rank"
    assert set(model) - {"name"} <= set(cli._MODEL_FIELDS["synthetic_low_rank"])
    assert cli.normalize_config(example)["model"] == model


def test_cache_schema_is_named_where_the_cache_is_described():
    readme = re.findall(r"The cache\s+\(schema\s+(\d+)\)", README.read_text(encoding="utf-8"))
    module = re.findall(r"A pilot cache\s+\(schema\s+(\d+)\)", cache.__doc__)
    assert readme == module == [str(cache.CACHE_SCHEMA)]
