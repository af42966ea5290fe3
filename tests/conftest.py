"""Shared fixtures: the two bundled model instances.

Both instances are small enough that every derived object (jump operators,
Lamb shift, dissipator, Howland blocks) fits comfortably in memory, yet rich
enough to exercise the full pipeline:

* ``two_level``: H = diag(0, 1), a single sigma_x coupling with form factor
  f(x) = x e^{-x^2} at beta = 1.  The populations obey a closed-form rate
  equation, which several tests use as an exact oracle.
* ``three_level``: energies (0, 0.9, 2.1) with two mutually orthogonal
  coupling channels and a pump on the 1 <-> 3 transition.  This is the
  optical-pumping demonstration instance.
* ``degenerate``: ``three_level`` with its middle level doubled (d = 4,
  energies (0, 0.9, 0.9, 2.1)), real symmetric couplings that mix the
  degenerate pair, and the pump on the 1 <-> 4 transition.  Not bundled.

The reservoir data (PV integrals, dissipator assembly) is the expensive part,
so the fixtures are session scoped; generator bundles for arbitrary
(lambda, eta) are cheap and built on demand via ``make_bundle``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pumped_lindblad import (
    FormFactor,
    GeneratorBundle,
    ReservoirSpec,
    atomic_lindbladian,
    decompose_atom,
    gibbs_state,
    reservoir_lindbladian,
    validate_pump,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _instance(h_at, beta, lam, eta, form_factors, couplings, h_p):
    atom = decompose_atom(h_at)
    res = ReservoirSpec(beta=beta, lam=lam, form_factors=form_factors,
                        couplings=couplings)
    data = reservoir_lindbladian(atom, res)
    pump = validate_pump(atom, h_p)
    l_at = atomic_lindbladian(atom)

    def make_bundle(lam_=lam, eta_=eta):
        return GeneratorBundle(l_at=l_at, l_p=pump.lindbladian, l_r=data.l_r,
                               lam=lam_, eta=eta_, omega=atom.pump_freq)

    return SimpleNamespace(
        atom=atom, res=res, data=data, pump=pump, l_at=l_at,
        beta=beta, lam=lam, eta=eta, h_p=h_p,
        rho_g=gibbs_state(atom, beta),
        make_bundle=make_bundle, bundle=make_bundle(),
    )


@pytest.fixture(scope="session")
def two_level():
    q = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h_p = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return _instance(
        h_at=np.diag([0.0, 1.0]).astype(complex),
        beta=1.0, lam=0.1, eta=0.0,
        form_factors=(FormFactor(((1.0, 1, 1.0),)),),
        couplings=(q,),
        h_p=h_p,
    )


@pytest.fixture(scope="session")
def three_level():
    q1 = np.zeros((3, 3), dtype=complex)
    q1[1, 2] = q1[2, 1] = 1.0
    q2 = np.zeros((3, 3), dtype=complex)
    q2[0, 1] = q2[1, 0] = 1.0
    h_p = np.zeros((3, 3), dtype=complex)
    h_p[2, 0] = 1.0
    f1 = FormFactor(((1.0, 1, 1.0),))
    f2 = FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0)))
    return _instance(
        h_at=np.diag([0.0, 0.9, 2.1]).astype(complex),
        beta=2.0, lam=0.1, eta=0.01,
        form_factors=(f1, f2),
        couplings=(q1, q2),
        h_p=h_p,
    )


@pytest.fixture(scope="session")
def degenerate():
    q1 = np.zeros((4, 4), dtype=complex)
    q1[1, 3] = q1[3, 1] = 1.0
    q1[2, 3] = q1[3, 2] = 0.4
    q1[1, 2] = q1[2, 1] = 0.3
    q2 = np.zeros((4, 4), dtype=complex)
    q2[0, 1] = q2[1, 0] = 1.0
    q2[0, 2] = q2[2, 0] = -0.7
    h_p = np.zeros((4, 4), dtype=complex)
    h_p[3, 0] = 1.0
    f1 = FormFactor(((1.0, 1, 1.0),))
    f2 = FormFactor(((1.0, 2, 1.0), (-0.75, 1, 1.0)))
    return _instance(
        h_at=np.diag([0.0, 0.9, 0.9, 2.1]).astype(complex),
        beta=2.0, lam=0.1, eta=0.01,
        form_factors=(f1, f2),
        couplings=(q1, q2),
        h_p=h_p,
    )


@pytest.fixture(scope="session")
def two_level_config():
    return json.loads((CONFIG_DIR / "two_level.json").read_text())


@pytest.fixture(scope="session")
def three_level_config():
    return json.loads((CONFIG_DIR / "three_level.json").read_text())
