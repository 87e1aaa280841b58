"""Import a repository file outside the package (a script, a benchmark
module) as a module, for tests of its functions."""

import importlib.util
from pathlib import Path


def load_module(relpath: str):
    path = Path(__file__).resolve().parent.parent / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
