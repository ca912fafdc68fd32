"""The repo-specific lint rule REV002 (``tools/lint.py``)."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _lint():
    spec = importlib.util.spec_from_file_location("repo_lint",
                                                  TOOLS / "lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, name: str, source: str) -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def test_rev002_flags_import_time_scipy_imports_only(tmp_path, capsys):
    _write(tmp_path, "plain.py", "import numpy\nimport scipy.sparse\n")
    _write(tmp_path, "pkg/from_import.py", "from scipy import fft as sfft\n")
    _write(tmp_path, "guarded.py", """\
        try:
            import scipy
        except ImportError:
            scipy = None
        """)
    _write(tmp_path, "in_class.py", """\
        class Holder:
            from scipy import ndimage
        """)
    _write(tmp_path, "lazy.py", """\
        import scipy_helpers
        from .scipy import local_module


        def warp(image):
            from scipy import ndimage
            return ndimage.zoom(image, 2)


        class Trigger:
            def apply(self, images):
                import scipy.fft
                return scipy.fft.dctn(images)
        """)
    assert _lint().check_module_scipy_imports(root=tmp_path) == 1
    flagged = sorted(line.split(": ")[0] for line in
                     capsys.readouterr().out.splitlines() if "REV002" in line)
    assert flagged == sorted(str(tmp_path / name) for name in [
        "plain.py:2", "pkg/from_import.py:1", "guarded.py:2",
        "in_class.py:2"])


def test_rev002_passes_function_level_imports(tmp_path, capsys):
    _write(tmp_path, "lazy.py", """\
        def warp(image):
            from scipy import ndimage
            return ndimage.zoom(image, 2)
        """)
    assert _lint().check_module_scipy_imports(root=tmp_path) == 0
    assert capsys.readouterr().out == ""


def test_rev002_source_tree_is_clean():
    assert _lint().check_module_scipy_imports() == 0
