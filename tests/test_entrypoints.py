"""Every CLI is reachable both as ``python -m`` and as a console script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent

CLI_MODULES = {
    "repro-gprof": "repro.cli.gprof_cli",
    "repro-prof": "repro.cli.prof_cli",
    "repro-kgmon": "repro.cli.kgmon_cli",
    "repro-vm": "repro.cli.vm_cli",
    "repro-stacks": "repro.cli.stacks_cli",
    "repro-check": "repro.cli.check_cli",
    "repro-merge": "repro.cli.merge_cli",
    "repro-pgo": "repro.cli.pgo_cli",
}


def _env_with_src():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


@pytest.mark.parametrize("module", sorted(CLI_MODULES.values()))
def test_python_dash_m_help_works(module):
    result = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        env=_env_with_src(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


@pytest.mark.parametrize("script,module", sorted(CLI_MODULES.items()))
def test_console_script_is_declared(script, module):
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'{script} = "{module}:main"' in pyproject


@pytest.mark.parametrize("module", sorted(CLI_MODULES.values()))
def test_module_main_returns_exit_status(module):
    """Each CLI exposes main(argv) returning an int (the script target)."""
    import importlib

    mod = importlib.import_module(module)
    assert callable(mod.main)


# -- import hygiene: a small run loads only what it uses ---------------------


def _run_checked(code: str, cwd: Path) -> str:
    """Run ``code`` in a fresh interpreter under ``auto`` kernel selection."""
    env = _env_with_src()
    env.pop("REPRO_KERNELS", None)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_repro_loads_neither_numpy_nor_analysis(tmp_path):
    out = _run_checked(
        "import sys, repro\n"
        "heavy = ('numpy', 'repro.core.analysis', 'repro.machine')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "import repro.core, repro.machine\n"
        "print(sorted(m for m in heavy[:2] if m in sys.modules))",
        tmp_path,
    )
    assert out.split() == ["[]", "[]"]


def test_pgo_import_loads_no_analysis_stack(tmp_path):
    """``repro-pgo`` runs its passes on the analysis stages' contract
    and runner, yet importing it loads none of the analysis stack."""
    heavy = (
        "repro.pipeline.runner", "repro.pipeline.stages",
        "repro.pipeline.session", "repro.pipeline.cache",
        "repro.core.analysis", "numpy",
    )
    out = _run_checked(
        "import sys, repro.cli.pgo_cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))",
        tmp_path,
    )
    assert out.split() == ["[]"]


def test_profile_journey_never_imports_numpy(tmp_path):
    """``repro-vm run --profile`` then ``repro-gprof`` on the canned
    program with the most buckets: every kernel call is below its
    crossover, so no process of the journey imports numpy."""
    from repro.machine.programs import PROGRAMS

    (tmp_path / "prog.s").write_text(PROGRAMS["insertion_sort"]())
    steps = [
        ("vm_cli", ["asm", "prog.s", "-o", "prog.vmexe", "--profile",
                    "--name", "insertion_sort"]),
        ("vm_cli", ["run", "prog.vmexe", "--profile", "--gmon", "g.gmon"]),
        ("gprof_cli", ["prog.vmexe", "g.gmon"]),
    ]
    for cli, argv in steps:
        out = _run_checked(
            "import sys\n"
            f"from repro.cli.{cli} import main\n"
            f"status = main({argv!r})\n"
            "print('numpy' in sys.modules, status)",
            tmp_path,
        )
        assert out.splitlines()[-1] == "False 0", (cli, argv, out)
    assert "call graph profile" in out


def test_every_exported_name_resolves():
    import repro
    import repro.core
    import repro.machine
    import repro.pipeline

    for package in (repro, repro.core, repro.machine, repro.pipeline):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package, name)
    # an export wins over the same-named submodule, as with eager imports
    import repro.core.propagate  # noqa: F401 - binds the submodule

    assert callable(repro.core.propagate)
    assert callable(repro.core.coverage)
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
