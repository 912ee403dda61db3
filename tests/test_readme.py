"""README's Python library block runs as written."""

from pathlib import Path
import re

from smallcell.harness import _trial_realization

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(block, scope)
    assert scope["alloc"].objective <= scope["res"].best_dual
    assert "<=" in capsys.readouterr().out
    # the block draws the channel run_experiment solves in trial 0
    trial = _trial_realization(scope["cfg"], 0)
    assert scope["real"].cross_gain.tobytes() == trial.cross_gain.tobytes()
