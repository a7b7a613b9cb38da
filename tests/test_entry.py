"""The package imports lazily, the command-line entry runs with one BLAS thread,
and ``curve``, ``nopt`` and ``dist`` run without numpy or ``dataclasses``.

The checks that depend on process start run in fresh interpreters: the test
process imported numpy long ago.
"""

import copy
import importlib
import inspect
import json
import pickle
import subprocess
import sys

import pytest

import lossyphase
from lossyphase.__main__ import BLAS_THREAD_VARIABLES

from conftest import child_env

# the public names each submodule gave the package when it imported them eagerly
SUBMODULE_NAMES = {
    "core": ("MAX_PHOTON_NUMBER", "channel_from_loss"),
    "loss": ("PureLossyState", "ReducedDensity", "pure_lossy_state", "reduced_density"),
    "povm": ("PhaseDistribution", "PhaseEstimate", "distribution", "distribution_from_density",
             "holevo", "lossless_reference", "phase_estimate", "sharpness_closed"),
    "states": ("AmplitudeVector", "optimal_amplitudes"),
    "sweep": ("DEFAULT_MAX_PHOTONS", "CurvePoint", "SweepResult", "curve", "nopt_vs_loss"),
}

# each public function's parameters as inspect prints them, annotations left
# out; a keyword added or removed is an edit of this table
SIGNATURES = {
    "channel_from_loss": "(loss)",
    "curve": "(loss, n_min=1, n_max=1000, normalized=False)",
    "distribution": "(state, loss)",
    "distribution_from_density": "(rho)",
    "holevo": "(sharpness)",
    "lossless_reference": "(n_photons)",
    "nopt_vs_loss": "(loss_grid, n_max=1000)",
    "optimal_amplitudes": "(n_photons)",
    "phase_estimate": "(state, loss)",
    "pure_lossy_state": "(state, loss)",
    "reduced_density": "(state, loss)",
    "sharpness_closed": "(state, loss)",
}

# runs the entry on a small curve, then reports what the process looks like
AFTER_ENTRY = (
    "import json, os, sys\n"
    "from lossyphase.__main__ import main\n"
    "assert main(['curve', '--loss', '0.1', '--n-range', '1:3', '--out', 'c.csv']) == 0\n"
    "tasks = len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else None\n"
    "print(json.dumps([{k: os.environ.get(k) for k in %r}, tasks]))\n" % (BLAS_THREAD_VARIABLES,)
)


# the modules a standard-library job never loads: numpy, and dataclasses with
# the inspect module it pulls in
HEAVY_MODULES = ("numpy", "dataclasses", "inspect")

# runs the entry on argv %r, then reports which of HEAVY_MODULES were ever imported
ENTRY_THEN_MODULES = (
    "import json, sys\n"
    "from lossyphase.__main__ import main\n"
    "assert main(%r) == 0\n"
    "print(json.dumps([m for m in %r if m in sys.modules]))\n"
)

# every job that must run on the standard library alone
STDLIB_JOBS = {
    "curve-csv": ["curve", "--loss", "7e-4", "--n-range", "1:64"],
    "curve-json": ["curve", "--loss", "7e-4", "--n-range", "1:64", "--format", "json"],
    "curve-normalized-csv": ["curve", "--loss", "7e-4", "--n-range", "1:64", "--normalized"],
    "curve-normalized-json": ["curve", "--loss", "7e-4", "--n-range", "1:64", "--normalized",
                              "--format", "json"],
    "nopt": ["nopt", "--loss-grid", "1e-4:0.5:8:log", "--n-max", "64"],
    "dist": ["dist", "--loss", "0.01", "--n", "16", "--phi-samples", "128"],
}

# the jobs that still need the numpy layers
NUMPY_JOBS = {
    "validate": ["validate"],
}


def run_python(code, cwd, **env_vars):
    """Last stdout line of ``python -c code`` (as JSON), with only ``env_vars`` of the BLAS variables set."""
    env = {k: v for k, v in child_env().items() if k not in BLAS_THREAD_VARIABLES}
    env.update(env_vars)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


class TestLazyPackage:
    def test_import_loads_no_numpy(self, tmp_path):
        # the cap and the loss rule live in core, so reading them loads no numpy either
        code = ("import json, sys, lossyphase as lp\n"
                "assert lp.channel_from_loss(0.1) == 0.1\n"
                "assert lp.MAX_PHOTON_NUMBER == 4096\n"
                f"print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))")
        assert run_python(code, tmp_path) == []

    def test_every_public_name_is_its_submodules(self):
        assert sorted(lossyphase.__all__) == sorted(n for names in SUBMODULE_NAMES.values() for n in names)
        for module, names in SUBMODULE_NAMES.items():
            submodule = importlib.import_module(f"lossyphase.{module}")
            for name in names:
                assert getattr(lossyphase, name) is getattr(submodule, name), name

    def test_dir_lists_public_names(self):
        assert set(lossyphase.__all__) <= set(dir(lossyphase))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lossyphase.no_such_name  # noqa: B018


def test_signature_inventory():
    signatures = {}
    for name in lossyphase.__all__:
        if inspect.isfunction(value := getattr(lossyphase, name)):
            signature = inspect.signature(value)
            bare = [p.replace(annotation=p.empty) for p in signature.parameters.values()]
            signatures[name] = str(signature.replace(parameters=bare, return_annotation=signature.empty))
    assert signatures == SIGNATURES


class TestEntryDefault:
    def test_one_blas_thread(self, tmp_path):
        variables, tasks = run_python(AFTER_ENTRY, tmp_path)
        assert variables == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": None}
        if not sys.platform.startswith("linux"):
            pytest.skip("thread count read from /proc/self/task")
        assert tasks == 1

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_caller_count_wins(self, tmp_path, name):
        variables, _ = run_python(AFTER_ENTRY, tmp_path, **{name: "2"})
        assert variables == {k: "2" if k == name else None for k in BLAS_THREAD_VARIABLES}

    def test_library_import_leaves_environment(self, tmp_path):
        code = ("import json, os; before = dict(os.environ); import lossyphase.cli; "
                "print(json.dumps(dict(os.environ) == before))")
        assert run_python(code, tmp_path) is True


class TestStandardLibraryJobs:
    @pytest.mark.parametrize("argv", STDLIB_JOBS.values(), ids=STDLIB_JOBS.keys())
    def test_job_loads_no_numpy(self, tmp_path, argv):
        assert run_python(ENTRY_THEN_MODULES % (argv, HEAVY_MODULES), tmp_path) == []

    @pytest.mark.parametrize("module", ["lossyphase.sweep", "lossyphase.cli"])
    def test_import_loads_no_numpy(self, tmp_path, module):
        code = f"import json, sys, {module}; print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))"
        assert run_python(code, tmp_path) == []

    @pytest.mark.parametrize("argv", NUMPY_JOBS.values(), ids=NUMPY_JOBS.keys())
    def test_numpy_jobs_still_run(self, tmp_path, argv):
        # the child asserts that main returned 0 and reports numpy as loaded
        assert "numpy" in run_python(ENTRY_THEN_MODULES % (argv, HEAVY_MODULES), tmp_path)


class TestValueTypes:
    """The standard-library value types keep what their dataclasses gave."""

    def test_sweep_result_is_read_only_and_keeps_its_points(self):
        result = lossyphase.curve(0.1, 1, 10)
        for name in ("loss", "n", "delta_phi", "n_opt", "points"):
            with pytest.raises(AttributeError):
                setattr(result, name, None)
            with pytest.raises(AttributeError):
                delattr(result, name)
        assert result.points == result.points
        assert result.loss == 0.1 and result.n == tuple(range(1, 11))

    def test_sweep_result_copies(self):
        result = lossyphase.curve(0.1, 1, 10)
        for duplicate in (copy.copy(result), pickle.loads(pickle.dumps(result))):
            assert type(duplicate) is lossyphase.SweepResult
            assert duplicate.points == result.points
            assert (duplicate.loss, duplicate.n_opt, duplicate.n_subshot_max) == (
                result.loss, result.n_opt, result.n_subshot_max)
