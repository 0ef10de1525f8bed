"""The README's code example runs as written, so it cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_minimal_end_to_end_run_executes(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A minimal end-to-end run in code:\s*```python\n(.*?)```", text,
                      re.DOTALL)
    assert block is not None, "the example is no longer the python block after its intro"
    exec(compile(block.group(1), f"{README}:example", "exec"), {"__name__": "readme"})
    blocks, shape = capsys.readouterr().out.splitlines()[:2]
    assert blocks.startswith("(BlockDef(modality='csi'")
    assert shape.startswith("(898, 701) ")  # 898 frames of 701 features, seed 7 at 120 s
