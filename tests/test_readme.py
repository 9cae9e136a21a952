"""The README's library example runs and prints the values it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_documented_values(capsys):
    block = re.search(r"## Library example\s+```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    documented = re.findall(r"^print\(.*\)\s+# (\d\.\d{4}) bits", block, re.M)
    assert documented == ["0.8601", "0.8048"]  # rate_1d, exact_mi_1d
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [f"{float(line):.4f}" for line in printed[:2]] == documented
