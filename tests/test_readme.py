import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    # the documented library example must name only functions that exist
    # and must run as written
    text = README.read_text()
    section = text[text.index("## Library use"):]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
