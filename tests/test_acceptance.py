"""Acceptance suite: one test per numbered criterion.

Each test prints a single pass/FAIL line.  Spectral criteria are checked
for three fixed-seed generic coefficient draws; eigenvalues must match
within 1e-8 relative and multiplicities exactly.
"""

import contextlib
import time

import numpy as np
import pytest

from toyqft import (
    OccupationState,
    ParticleMode,
    Parity,
    Statistics,
    annihilator,
    anticommutator,
    build_roster,
    build_space,
    classify_form,
    commutator,
    creator,
    eigh,
    free_field,
    hamiltonian,
    hamiltonian_density,
    hyperboloid,
    interaction_field,
    lorentz_product,
    phase,
    reconstruct,
    scattering_operator,
    self_interaction,
    space_volume,
)
from toyqft.spacetime import EnergyMomentum, LatticePoint

from conftest import generic_coeffs, j_space, k_space, l_space

SEEDS = (101, 202, 303)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    print(f"[criterion {number:2d}] {name}: pass")


def draws(count):
    for seed in SEEDS:
        yield generic_coeffs(np.random.default_rng(seed), count)


def assert_spectrum(op, expected, tol=1e-8):
    """expected: list of (value, multiplicity); order-insensitive."""
    pairs = eigh(op).pairs()
    expected = sorted(expected)
    assert [m for _, m in pairs] == [m for _, m in expected], (
        f"multiplicities {pairs} != {expected}"
    )
    got = np.array([v for v, _ in pairs])
    want = np.array([v for v, _ in expected])
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= tol * scale, (
        f"values {got} != {want}"
    )


def two_family_fermions(n1, n2):
    """Fermion roster split into two equal-size mass families."""
    modes = [
        ParticleMode(i, f"p{i + 1}", Statistics.FERMION, mass=1)
        for i in range(n1)
    ]
    modes += [
        ParticleMode(n1 + i, f"q{i + 1}", Statistics.FERMION, mass=2)
        for i in range(n2)
    ]
    return modes


def test_criterion_01_dimensions():
    with criterion(1, "space dimensions"):
        for s in range(1, 7):
            assert k_space(s).dimension == 2**s
        assert j_space(2, 3).dimension == 10
        assert l_space(2, 2, 2).dimension == 13


def test_criterion_02_algebra_identities():
    with criterion(2, "ladder operator algebra"):
        spaces = [k_space(s) for s in range(1, 7)] + [l_space(2, 2, 2)]
        worst = 0.0
        for space in spaces:
            n = space.dimension
            fermions = [
                m.id for m in space.modes
                if m.statistics is Statistics.FERMION
            ]
            bosons = [
                m.id for m in space.modes
                if m.statistics is Statistics.BOSON
            ]
            for i in fermions + bosons:
                a = annihilator(space, i)
                assert np.array_equal(creator(space, i).mat, a.mat.conj().T)
            interior = [
                idx for idx, st in enumerate(space.basis)
                if st.total < space.cutoff_s
            ]
            boundary = [
                idx for idx, st in enumerate(space.basis)
                if st.total == space.cutoff_s
            ]
            # full CAR on untruncated fermion spaces; on the truncated
            # mixed space the boundary deforms to {a_j, a_j*} = N_j,
            # checked like the boson boundary rule below
            truncated = space.cutoff_s < len(space.modes)
            for i in fermions:
                for j in fermions:
                    ai, aj = annihilator(space, i), annihilator(space, j)
                    worst = max(worst, np.max(np.abs(anticommutator(ai, aj).mat)))
                    car = anticommutator(ai, aj.adjoint()).mat
                    delta = 1.0 if i == j else 0.0
                    if not truncated:
                        worst = max(worst, np.max(np.abs(
                            car - delta * np.eye(n)
                        )))
                        continue
                    worst = max(worst, np.max(np.abs(
                        car[:, interior] - delta * np.eye(n)[:, interior]
                    )))
                    if i == j:
                        for idx in boundary:
                            expect = space.basis[idx].count_of(j)
                            worst = max(worst, abs(car[idx, idx] - expect))
                            col = np.delete(car[:, idx], idx)
                            if col.size:
                                worst = max(worst, np.max(np.abs(col)))
            for i in bosons:
                for j in bosons:
                    ai, aj = annihilator(space, i), annihilator(space, j)
                    worst = max(worst, np.max(np.abs(commutator(ai, aj).mat)))
                    delta = 1.0 if i == j else 0.0
                    ccr = commutator(ai, aj.adjoint()).mat
                    worst = max(worst, np.max(np.abs(
                        ccr[:, interior] - delta * np.eye(n)[:, interior]
                    )))
            for j in bosons:
                aj = annihilator(space, j)
                diag = commutator(aj, aj.adjoint()).mat
                for idx in boundary:
                    expect = -space.basis[idx].count_of(j)
                    worst = max(worst, abs(diag[idx, idx] - expect))
                    col = np.delete(diag[:, idx], idx)
                    worst = max(worst, np.max(np.abs(col)) if col.size else 0.0)
        assert worst <= 1e-12, f"max algebra violation {worst}"


def test_criterion_03_single_mode_fermion_field():
    with criterion(3, "single-mode fermion field eigenstructure"):
        for (alpha,) in draws(1):
            for s in range(1, 6):
                space = k_space(s)
                eta = free_field(space, [(0, alpha)])
                assert_spectrum(
                    eta,
                    [(-abs(alpha), 2 ** (s - 1)), (abs(alpha), 2 ** (s - 1))],
                )
                square = (eta @ eta).mat
                assert np.max(np.abs(
                    square - abs(alpha) ** 2 * np.eye(space.dimension)
                )) <= 1e-10
                # listed eigenvector forms: |a| e_S +/- conj(a) e_{S u p1}
                others = [st for st in space.basis if 0 not in st.fermions]
                for st in others:
                    up = OccupationState((0,) + st.fermions, ())
                    for sign in (1, -1):
                        v = np.zeros(space.dimension, dtype=complex)
                        v[space.index_of(st)] = abs(alpha)
                        v[space.index_of(up)] = sign * np.conj(alpha)
                        res = eta.mat @ v - sign * abs(alpha) * v
                        assert np.max(np.abs(res)) <= 1e-10


def test_criterion_04_two_mode_fermion_field():
    with criterion(4, "two-mode fermion field spectrum"):
        for alpha, beta in draws(2):
            om = np.hypot(abs(alpha), abs(beta))
            phi = free_field(k_space(2), [(0, alpha), (1, beta)])
            assert_spectrum(phi, [(-om, 2), (om, 2)])


def test_criterion_05_three_mode_fermion_fields():
    """Red by design.  The library's ladders obey the CAR, under which
    phi2 squares to (a^2 + b^2) I: two values, four times each.  Both
    claimed spectra are what sign-twisted ladders give, a_j = s_j
    (lowering of mode j) with s_0 = +1, s_1 = -1 exactly when
    n_0 = n_2 = 1 and s_2 = -1 exactly when n_0 = 1.  Those break the
    CAR on half the kets: a0 and a1 commute where n2 = 0, a1 and a2
    where n0 = 0 (`test_sign_rule.py`)."""
    failures = []
    with criterion(5, "fermion fields on the 8-dim space"):
        for coeffs in draws(3):
            alpha, beta, gamma = coeffs
            a, b, c = abs(alpha), abs(beta), abs(gamma)
            space = k_space(3)
            om = np.hypot(a, b)
            try:
                phi2 = free_field(space, [(0, alpha), (1, beta)])
                assert_spectrum(phi2, [
                    (-(a + b), 1), (-om, 2), (-abs(a - b), 1),
                    (abs(a - b), 1), (om, 2), (a + b, 1),
                ])
            except AssertionError as exc:
                failures.append(f"two-term field: {exc}")
            try:
                phi3 = free_field(
                    space, [(0, alpha), (1, beta), (2, gamma)]
                )
                s2 = a * a + b * b + c * c
                shift = 2 * np.sqrt(b * b * (a * a + c * c))
                assert_spectrum(phi3, [
                    (-np.sqrt(s2 + shift), 1), (-np.sqrt(s2), 2),
                    (-np.sqrt(s2 - shift), 1), (np.sqrt(s2 - shift), 1),
                    (np.sqrt(s2), 2), (np.sqrt(s2 + shift), 1),
                ])
            except AssertionError as exc:
                failures.append(f"three-term field: {exc}")
        assert not failures, "; ".join(failures)


def test_criterion_06_two_mode_boson_fields():
    with criterion(6, "two-mode boson field spectra"):
        for alpha, beta in draws(2):
            om = np.hypot(abs(alpha), abs(beta))
            spec = [(0, alpha), (1, beta)]
            assert_spectrum(free_field(j_space(2, 2), spec), [
                (0.0, 2), (-om, 1), (om, 1),
                (-np.sqrt(3) * om, 1), (np.sqrt(3) * om, 1),
            ])
            extra = [np.sqrt(3 + np.sqrt(6)) * om, np.sqrt(3 - np.sqrt(6)) * om]
            assert_spectrum(free_field(j_space(2, 3), spec), [
                (0.0, 2), (-om, 1), (om, 1),
                (-np.sqrt(3) * om, 1), (np.sqrt(3) * om, 1),
                (-extra[0], 1), (extra[0], 1), (-extra[1], 1), (extra[1], 1),
            ])


def test_criterion_07_mixed_space_free_fields():
    with criterion(7, "free fields on the 13-dim mixed space"):
        for coeffs in draws(4):
            alpha, beta, gamma, delta = coeffs
            space = l_space(2, 2, 2)
            om1 = np.hypot(abs(alpha), abs(beta))
            om2 = np.hypot(abs(gamma), abs(delta))
            phi = free_field(space, [(0, alpha), (1, beta)])
            assert_spectrum(phi, [(0.0, 5), (-om1, 4), (om1, 4)])
            psi = free_field(space, [(2, gamma), (3, delta)])
            assert_spectrum(psi, [
                (0.0, 5), (-om2, 3), (om2, 3),
                (-np.sqrt(3) * om2, 1), (np.sqrt(3) * om2, 1),
            ])


def test_criterion_08_interaction_spectra():
    """Red by design on its 8-dim squared field, the square of criterion
    5's two-term field: under the CAR phi2^2 = (a^2 + b^2) I.  The
    claimed (a - b)^2 x2, a^2 + b^2 x4, (a + b)^2 x2 is what criterion
    5's sign-twisted ladders give (`test_sign_rule.py`)."""
    failures = []
    with criterion(8, "interaction field spectra"):
        for coeffs in draws(6):
            alpha, beta, gamma, delta, eps, zeta = coeffs
            a, b = abs(alpha), abs(beta)
            ab = a * b

            phi = free_field(k_space(2), [(0, alpha), (1, beta)])
            sq = self_interaction(phi).mat
            assert np.max(np.abs(sq - (a * a + b * b) * np.eye(4))) <= 1e-12

            try:
                phi3 = free_field(k_space(3), [(0, alpha), (1, beta)])
                assert_spectrum(self_interaction(phi3), [
                    ((a - b) ** 2, 2), (a * a + b * b, 4), ((a + b) ** 2, 2),
                ])
            except AssertionError as exc:
                failures.append(f"squared field on 8-dim space: {exc}")

            mixed = l_space(2, 2, 2)
            om1 = np.hypot(a, b)
            om2 = np.hypot(abs(gamma), abs(delta))
            tau = interaction_field(
                free_field(mixed, [(0, alpha), (1, beta)]),
                free_field(mixed, [(2, gamma), (3, delta)]),
            )
            assert_spectrum(tau, [
                (0.0, 5), (-om1 * om2, 1), (om1 * om2, 1),
                (-om1 * om2 / 2, 2), (om1 * om2 / 2, 2),
                (-np.sqrt(1.5) * om1 * om2, 1), (np.sqrt(1.5) * om1 * om2, 1),
            ])

            j112 = j_space(2, 2)
            tau = interaction_field(
                free_field(j112, [(0, alpha)]),
                free_field(j112, [(1, beta)]),
            )
            assert_spectrum(tau, [
                (0.0, 2), (-ab, 1), (ab, 1),
                (-np.sqrt(2) * ab, 1), (np.sqrt(2) * ab, 1),
            ])

            j212 = j_space(3, 2)
            tau = interaction_field(
                free_field(j212, [(0, alpha)]),
                free_field(j212, [(2, beta)]),
            )
            assert_spectrum(tau, [
                (0.0, 4), (-ab, 1), (ab, 1), (-ab / 2, 1), (ab / 2, 1),
                (-np.sqrt(2) * ab, 1), (np.sqrt(2) * ab, 1),
            ])

            k4 = build_space(two_family_fermions(2, 2), 4)
            om2 = np.hypot(abs(gamma), abs(delta))
            tau = interaction_field(
                free_field(k4, [(0, alpha), (1, beta)]),
                free_field(k4, [(2, gamma), (3, delta)]),
            )
            assert_spectrum(tau, [(-om1 * om2, 8), (om1 * om2, 8)])

            start = time.perf_counter()
            k6 = build_space(two_family_fermions(3, 3), 6)
            big1 = np.sqrt(a * a + b * b + abs(gamma) ** 2)
            big2 = np.sqrt(abs(delta) ** 2 + abs(eps) ** 2 + abs(zeta) ** 2)
            tau = interaction_field(
                free_field(k6, [(0, alpha), (1, beta), (2, gamma)]),
                free_field(k6, [(3, delta), (4, eps), (5, zeta)]),
            )
            assert_spectrum(tau, [(-big1 * big2, 32), (big1 * big2, 32)])
            assert time.perf_counter() - start < 5.0
        assert not failures, "; ".join(failures)


def test_criterion_09_form_classification():
    with criterion(9, "eigenvector form classification"):
        for alpha, beta in draws(2):
            a, b = abs(alpha), abs(beta)
            space = j_space(2, 2)
            tau = interaction_field(
                free_field(space, [(0, alpha)]),
                free_field(space, [(1, beta)]),
            )

            def vec(entries):
                v = np.zeros(space.dimension, dtype=complex)
                for spec, amp in entries:
                    v[space.index_of(OccupationState(bosons=spec))] = amp
                return v

            ca, cb = np.conj(alpha), np.conj(beta)
            listed = [
                (0.0, vec([((), -beta), (((1, 2),), np.sqrt(2) * cb)])),
                (0.0, vec([((), -alpha), (((0, 2),), np.sqrt(2) * ca)])),
                (a * b, vec([(((0, 1),), a * beta), (((1, 1),), alpha * b)])),
                (-a * b, vec([(((0, 1),), -a * beta), (((1, 1),), alpha * b)])),
                (np.sqrt(2) * a * b, vec([
                    ((), np.sqrt(2) * beta / cb),
                    (((0, 1), (1, 1)), 2 * beta * a / (alpha * b)),
                    (((0, 2),), ca * beta / (alpha * cb)),
                    (((1, 2),), 1.0),
                ])),
                (-np.sqrt(2) * a * b, vec([
                    ((), np.sqrt(2) * beta / cb),
                    (((0, 1), (1, 1)), -2 * beta * a / (alpha * b)),
                    (((0, 2),), ca * beta / (alpha * cb)),
                    (((1, 2),), 1.0),
                ])),
            ]
            types = []
            for value, v in listed:
                res = tau.mat @ v - value * v
                assert np.max(np.abs(res)) <= 1e-10 * max(
                    1.0, np.max(np.abs(v))
                )
                cls = classify_form(space, v, 0, 1)
                types.append(cls.type_t)
                expect_odd = abs(abs(value) - a * b) <= 1e-12 * a * b
                assert (cls.parity is Parity.ODD) == expect_odd
                if not expect_odd:
                    assert cls.parity is Parity.EVEN
            assert sorted(types) == [2, 2, 2, 2, 4, 4]


def test_criterion_10_spacetime():
    with criterion(10, "lattice arithmetic and enumerations"):
        brute = sorted(
            (p0, p1, p2, p3)
            for p0 in range(3)
            for p1 in range(-2, 3)
            for p2 in range(-2, 3)
            for p3 in range(-2, 3)
            if p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 == 1
        )
        points = hyperboloid(1, 2)
        assert len(points) == 9
        assert [p.as_tuple() for p in points] == brute

        for x0, expect in ((0, 1), (1, 7), (2, 33)):
            count = sum(
                1
                for x1 in range(-x0, x0 + 1)
                for x2 in range(-x0, x0 + 1)
                for x3 in range(-x0, x0 + 1)
                if x1 * x1 + x2 * x2 + x3 * x3 <= x0 * x0
            )
            assert space_volume(x0) == expect == count

        roots = {0: 1, 1: 1j, 2: -1, 3: -1j}
        for p1 in range(-3, 4):
            p = EnergyMomentum(3, (p1, 0, 0))
            for x0 in range(5):
                x = LatticePoint(x0, (1, 0, 0))
                assert phase(p, x) == roots[lorentz_product(p, x) % 4]

        for m in range(4):
            for p in hyperboloid(m, 4):
                assert p.p0 * p.p0 == m * m + sum(c * c for c in p.p)


def test_criterion_11_scattering():
    with criterion(11, "scattering scenario grid"):
        for r in (1, 2):
            roster = build_roster(1, 1, r)
            for s in (2, 3):
                space = build_space(roster, s)
                dim = space.dimension
                for x0 in (0, 1):
                    h = hamiltonian(space, x0, r, 1, 1)
                    assert np.max(np.abs(h.mat - h.mat.conj().T)) <= 1e-12
                    decomp = eigh(h)
                    err = np.linalg.norm(reconstruct(decomp) - h.mat)
                    scale = max(1.0, np.linalg.norm(h.mat))
                    assert err <= 1e-9 * scale
                    smat = scattering_operator(h).mat
                    assert np.max(np.abs(
                        smat.conj().T @ smat - np.eye(dim)
                    )) <= 1e-9
                    col_sums = np.sum(np.abs(smat) ** 2, axis=0)
                    assert np.max(np.abs(col_sums - 1.0)) <= 1e-9

        space = build_space(build_roster(1, 1, 1), 2)
        tau = hamiltonian_density(space, LatticePoint(0), 1, 1, 1)
        assert_spectrum(tau, [
            (0.0, 2), (-1.0, 1), (1.0, 1),
            (-np.sqrt(2), 1), (np.sqrt(2), 1),
        ])
