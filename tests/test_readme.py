"""The README's library quickstart runs, and the figures quoted beside it hold."""

import math
import re
from pathlib import Path

from qdmsim import LCQDM, eta_exact

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_quoted_figures_hold(capsys):
    text = README.read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    eta_lc, eta_conv = map(float, capsys.readouterr().out.split())
    exact = eta_exact(namespace["params"], LCQDM)
    ratio = (1 + 1 / math.e) / (2 * (1 - 1 / math.e))
    assert eta_conv > eta_lc
    for value, quoted in ((eta_lc, "3.3465"), (exact, "3.6188"),
                          (ratio, "1.0820")):
        assert f"{value:.4f}" == quoted
        assert quoted in text
