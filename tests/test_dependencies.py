"""The decide path runs on numpy and the standard library alone."""

import os
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    import repro.__main__
    import repro.service.execution

    status = repro.__main__.main(["decide", "majority"])
    assert status == 0, status
    assert "networkx" not in sys.modules, "networkx was imported"
    """
)


def test_decide_never_imports_networkx(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [src, env.get("PYTHONPATH", "")] if p)
    env["REPRO_TOWER_CACHE"] = str(tmp_path / "towers")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "unsolvable" in out.stdout
