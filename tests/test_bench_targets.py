"""Every name the benchmark's tracer patches exists in the package.

perfbench/layers.py wraps the functions and methods listed in its TARGETS
by module and attribute path. A rename in src/ would otherwise show only
when a traced benchmark run fails to install its wrappers. The file is
read, not imported.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {LAYERS}")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for name, module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            # the tracer patches a method on the class that defines it
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append((name, module_name, path))
            continue
        if not callable(fn):
            missing.append((name, module_name, path))
    assert not missing, missing
