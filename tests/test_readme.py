"""The library example in README.md runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    tau_hat, se, *ci = capsys.readouterr().out.replace(
        "(", " ").replace(")", " ").replace(",", " ").split()
    assert float(ci[0]) < float(tau_hat) < float(ci[1]) and float(se) > 0
