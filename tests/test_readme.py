"""The README's Python examples run against the current library, whose
package root holds what they import from it."""

import inspect
import re
from pathlib import Path

import pytest

import dwtcdma

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    # Not run as __main__, so a guarded parallel sweep is defined but not run.
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme_example"})
    assert not any(tmp_path.iterdir())


def test_package_root_holds_the_library_use_imports():
    # Exactly the names the Library use block imports from the root, plus
    # __version__ and whichever submodules have been imported.
    imported = re.search(r"^from dwtcdma import \((.*?)\)", BLOCKS[0], re.MULTILINE | re.DOTALL)
    names = {name.strip() for name in imported.group(1).split(",")}
    public = {name for name, value in vars(dwtcdma).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == names
    assert dwtcdma.__version__
