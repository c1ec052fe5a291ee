"""Shared fixtures: small molecules, bases, engines, and reference matrices.

Everything expensive (integral evaluation, reference Fock builds) is
session-scoped so the full suite stays fast.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np
import pytest

from reference_engine import SyntheticERIEngine
from reference_supermatrix import assemble_supermatrix
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import h2, methane, water
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.scf.fock import fock_matrix
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import orthogonalizer


def cartesian(basis: BasisSet) -> BasisSet:
    """``basis`` with every pure shell forced Cartesian."""
    return BasisSet(
        molecule=basis.molecule,
        shells=[replace(sh, pure=False) for sh in basis.shells],
        name=basis.name + "-cart",
    )


def pair_block(matrix_fn, sh_a, sh_b, molecule=None, **kwargs):
    """The ``<sh_a| . |sh_b>`` block of a production one-electron matrix
    builder (``overlap``, ``kinetic``, ...), evaluated on a throwaway
    two-shell basis; ``molecule`` supplies the nuclei where they matter."""
    basis = BasisSet(
        molecule=molecule or water(), shells=[sh_a, sh_b], name="pair"
    )
    return matrix_fn(basis, **kwargs)[..., : sh_a.nbf, sh_a.nbf :]


def assert_store_holds_kernel_bits(engine, tau=1e-11):
    """The matrices ``engine``'s ready store holds are, array for array
    (sha256), the supermatrix the v2 assembly folds from the class
    kernel's blocks of the plan at ``tau``: a served J/K contracts the
    integrals a direct build does, in another summation order."""
    store = engine.integral_store
    assert store.ready
    mj, mk, _ = assemble_supermatrix(engine, engine.class_plan(tau))
    want = [a for m in (mj, mk) for a in (m.data, m.indices, m.indptr)]
    got = [a for arrays in store.read_stacked() for a in arrays]
    assert [sha256(a) for a in got] == [sha256(a) for a in want]


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def supermatrix_arrays(engine):
    """The CSR arrays of the supermatrix mapped in an engine's store."""
    sm = engine.integral_store.supermatrix
    return [a for m in (sm.mj, sm.mk) for a in (m.data, m.indices, m.indptr)]


def assert_jk_close(jk, ref, tol=1e-12):
    """(J, K) pairs equal to summation order."""
    for got, want in zip(jk, ref):
        assert np.abs(got - want).max() <= tol


@pytest.fixture(scope="session")
def water_mol():
    return water()


@pytest.fixture(scope="session")
def water_basis(water_mol):
    return BasisSet.build(water_mol, "sto-3g")


@pytest.fixture(scope="session")
def water_engine(water_basis):
    return MDEngine(water_basis)


@pytest.fixture(scope="session")
def water_matrices(water_mol, water_basis):
    """(S, Hcore, X, D_guess) for water/STO-3G."""
    s = overlap(water_basis)
    h = core_hamiltonian(water_basis)
    x = orthogonalizer(s)
    d = core_guess(h, x, water_mol.nelectrons // 2)
    return s, h, x, d


@pytest.fixture(scope="session")
def water_fock_reference(water_engine, water_matrices):
    _s, h, _x, d = water_matrices
    return fock_matrix(water_engine, h, d, 1e-11)


@pytest.fixture(scope="session")
def methane_mol():
    return methane()


@pytest.fixture(scope="session")
def methane_basis(methane_mol):
    return BasisSet.build(methane_mol, "sto-3g")


@pytest.fixture(scope="session")
def methane_engine(methane_basis):
    return MDEngine(methane_basis)


@pytest.fixture(scope="session")
def methane_matrices(methane_mol, methane_basis):
    s = overlap(methane_basis)
    h = core_hamiltonian(methane_basis)
    x = orthogonalizer(s)
    d = core_guess(h, x, methane_mol.nelectrons // 2)
    return s, h, x, d


@pytest.fixture(scope="session")
def methane_fock_reference(methane_engine, methane_matrices):
    _s, h, _x, d = methane_matrices
    return fock_matrix(methane_engine, h, d, 1e-11)


@pytest.fixture(scope="session")
def h2_mol():
    return h2(0.7414)


@pytest.fixture(scope="session")
def synthetic_engine():
    """Synthetic-ERI engine on propane (cheap quartets, closed-form J/K).

    19 shells -- enough for multi-process partitions -- with every
    quartet an O(1) slice instead of a real integral.
    """
    from repro.chem.builders import alkane

    basis = BasisSet.build(alkane(3), "sto-3g")
    return SyntheticERIEngine(basis)


@pytest.fixture(scope="session")
def synthetic_density(synthetic_engine):
    rng = np.random.default_rng(11)
    n = synthetic_engine.basis.nbf
    a = rng.normal(size=(n, n)) / n
    return a @ a.T


# -- report sources ------------------------------------------------------------

#: the summary keys the report's own sections read (JSON-native by contract)
PAGE_KEYS = ("fock_build", "critpath_analysis", "chaos", "torture")

#: synthetic torture records: a markup-hostile case name, an aborted case
TORTURE_RECORDS = [
    {"case": "stretched <h2>", "description": "d", "passed": True,
     "converged": True, "status": "converged", "iterations": 9,
     "energy": -1.0, "trail": ["damp & shift"], "guard": {"level": 1}},
    {"case": "aborted", "passed": False, "aborted": True,
     "abort_reason": "nan", "vanilla_converged": False},
]


@dataclass
class ReportSource:
    """One page source run end to end through the CLI (water/STO-3G,
    p = 4): its run directory, the page the command wrote, the
    parent-style page of the same run's data (``reference_report``),
    and every field the run recorded through ``add_summary``."""

    run_dir: object
    page: object
    oracle: str
    recorded: dict


def _run_source(name: str, tmp, monkeypatch) -> ReportSource:
    import json

    import reference_report as ref
    from repro.cli import main
    from repro.fock import chaos
    from repro.fock.gtfock import gtfock_build
    from repro.obs.manifest import RunLedger, load_run
    from repro.runtime.faults import GateResult
    from repro.scf import torture

    run_dir, page, js = tmp / name, tmp / f"{name}.html", tmp / f"{name}.json"
    recorded: dict = {}
    add_summary = RunLedger.add_summary

    def recording(self, **fields):
        recorded.update(fields)
        add_summary(self, **fields)

    monkeypatch.setattr(RunLedger, "add_summary", recording)
    common = ["--run-dir", str(run_dir)]
    if name == "run":
        assert main(["report", "water", "--basis", "sto-3g", "--nproc", "4",
                     "--profile", "--out", str(page), *common]) == 0
        rep, _ = ref.run_report("water", "sto-3g", nproc=4)
        rep.phases = load_run(run_dir).phases
        oracle = ref.render_report(rep)
    elif name == "critpath":
        assert main(["analyze", "water", "--basis", "sto-3g", "--report",
                     str(page), "--json", str(js), *common]) == 0
        oracle = ref.render_critpath_report(json.loads(js.read_text()))
    elif name == "chaos":
        assert main(["chaos", "water", "--basis", "sto-3g", "--nproc", "4",
                     "--seed", "7", "--deaths", "1", "--report", str(page),
                     "--json", str(js), *common]) == 0
        builds = []  # the harness's clean and faulted builds, in order
        monkeypatch.setattr(chaos, "gtfock_build", lambda *a, **kw: (
            builds.append(gtfock_build(*a, **kw)) or builds[-1]
        ))
        cres = chaos.run_chaos("water", "sto-3g", nproc=4, seed=7, ndeaths=1)
        oracle = ref.render_report(ref.chaos_report(builds[-1], cres.payload))
    elif name == "torture":
        synthetic = GateResult(
            "torture", tuple((r["case"], r["passed"]) for r in TORTURE_RECORDS),
            (), TORTURE_RECORDS,
        )
        monkeypatch.setattr(torture, "run_torture", lambda **kw: synthetic)
        # the aborted record fails the gate: exit 1, page still written
        assert main(["torture", "--report", str(page), *common]) == 1
        oracle = ref.render_torture_report(TORTURE_RECORDS)
    else:  # a ledgered SCF run, rendered after the fact
        assert main(["scf", "water", "--basis", "sto-3g", "--profile",
                     "--integrity", *common]) == 0
        assert main(["report", str(run_dir), "--out", str(page)]) == 0
        oracle = ref.render_ledger_report(load_run(run_dir))
    return ReportSource(run_dir, page, oracle, recorded)


@pytest.fixture(scope="session")
def report_source(tmp_path_factory):
    """``report_source(name)``: one of the five page sources (``run``,
    ``critpath``, ``chaos``, ``torture``, ``ledger``), run once per
    session."""
    cache: dict[str, ReportSource] = {}

    def get(name: str) -> ReportSource:
        if name not in cache:
            with pytest.MonkeyPatch.context() as mp:
                cache[name] = _run_source(
                    name, tmp_path_factory.mktemp(f"page-{name}"), mp
                )
        return cache[name]

    return get
