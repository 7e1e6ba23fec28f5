"""Every script in examples/ still imports against the public API."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    """Each example guards ``main()``, so this imports without running."""
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
