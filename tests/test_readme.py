import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no fenced python block under 'Library sketch'"
    exec(compile(match.group(1), "README.md", "exec"), {})
