"""The CI workflow runs each whole-domain sweep of ``tests/sweeps.py`` by its node id. A plain pytest run
does not collect that module, so a sweep missing from the ``sweeps`` job's matrix would never run."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_sweeps_matrix_names_every_sweep():
    # read as text: the test extra installs no YAML parser
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    job = re.search(r"^  sweeps:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S)
    assert job, "tests.yml has no sweeps job"
    matrix = re.search(r"^( +)sweep:\n((?:\1 +(?:- .*|#.*)\n)+)", job.group(1), re.M)
    assert matrix, "the sweeps job has no sweep matrix"
    listed = re.findall(r"^ +- (\S+)$", matrix.group(2), re.M)
    module = ast.parse((ROOT / "tests" / "sweeps.py").read_text(encoding="utf-8"))
    sweeps = [node.name for node in module.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    assert sweeps and len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(sweeps)
