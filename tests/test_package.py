"""What `import zred` loads, and the names it resolves on first use.

Each check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CORE_MODULES = ["forms", "strings", "contfrac", "kernel", "pell", "maps", "reduction"]


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter that imports zred from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_the_oracle_unloaded():
    run_fresh("""
        import sys
        import zred
        assert "zred.oracle" not in sys.modules
        assert "zred.cli" not in sys.modules
    """)


@pytest.mark.parametrize("name", CORE_MODULES)
def test_core_modules_load_neither_oracle_nor_cli(name):
    run_fresh(f"""
        import sys
        import zred.{name}
        loaded = {{"zred.oracle", "zred.cli"}} & set(sys.modules)
        assert not loaded, loaded
    """)


def test_lazy_names_are_the_oracle_objects():
    run_fresh("""
        import sys
        import zred
        oracle = zred.oracle
        assert oracle is sys.modules["zred.oracle"]
        for name in ("SUITE_IDS", "VerificationReport", "expand_surd_oracle", "verify"):
            assert getattr(zred, name) is getattr(oracle, name), name
        from zred import SUITE_IDS, verify
        assert verify is oracle.verify and SUITE_IDS is oracle.SUITE_IDS
    """)


def test_star_import_binds_every_public_name():
    run_fresh("""
        import zred
        names = {}
        exec("from zred import *", names)
        missing = [n for n in zred.__all__ if n not in names]
        assert not missing, missing
        assert all(names[n] is getattr(zred, n) for n in zred.__all__)
        assert names["verify"] is zred.oracle.verify
    """)


def test_unknown_names_raise_attribute_error():
    run_fresh("""
        import sys
        import zred
        try:
            zred.no_such_name
        except AttributeError as e:
            assert "no_such_name" in str(e), e
        else:
            raise AssertionError("zred.no_such_name resolved")
        assert not hasattr(zred, "no_such_name")
        assert "zred.oracle" not in sys.modules
    """)


def test_lazy_verify_shards_across_workers():
    # pool workers unpickle oracle._work by name, so they must still find it
    out = run_fresh("""
        import json
        import zred
        one = zred.verify("rotation", 100, jobs=1).to_json()
        two = zred.verify("rotation", 100, jobs=2).to_json()
        assert one == two, (one, two)
        print(json.dumps(one))
    """)
    assert '"passed": true' in out
