"""Tests for the charge-1 monopole bundle."""

from fractions import Fraction

import pytest

from fuzzyqrg.scalars import ParamScalar, ONE, I, LP
from fuzzyqrg.algebra import AlgElem, commutator, X1, X2, X3
from fuzzyqrg.forms import DiffForm, d, s_basis
from fuzzyqrg.monopole import (
    AlgMatrix, FormMatrix, coords, projector, projector_dP,
    grassmann_connection, grassmann_closed_form, monopole_curvature,
    f23_factor,
)
from fuzzyqrg.verify import iter_checks


def test_projector_is_idempotent():
    p = projector()
    assert p @ p == p


def test_projector_is_hermitian():
    p = projector()
    assert p.star() == p


def test_projector_trace():
    assert projector().trace() == AlgElem.scalar(ONE + LP)


def test_step_coordinates():
    x, z = coords()
    assert commutator(x, z) == LP * z
    assert z.star() * z == x * (AlgElem.one() - x)
    # the commutator of z with its adjoint closes on x3 with the
    # deformation parameter itself as coupling
    assert commutator(z, z.star()) == LP * X3


def test_projective_basis_relation():
    (check,) = [fn for _, description, _, fn in iter_checks("monopole")
                if description == "projective basis relation"]
    assert check() is True


def test_dP_entries():
    half = ParamScalar.of(Fraction(1, 2))
    dp = projector_dP()
    # d of the (0,0) entry is -(1/2) d(x3) = (1/2)(x2 s1 - x1 s2)
    assert dp.m[0][0].component(1) == half * X2
    assert dp.m[0][0].component(2) == -(half * X1)
    assert dp.m[0][0].component(3) == AlgElem.zero()


def test_dP_diagonal_antisymmetry():
    dp = projector_dP()
    assert dp.m[1][1] == -dp.m[0][0]


def test_connection_star_is_P_dP():
    # ((dP)P)* = P dP because P is hermitian and star commutes with d
    p = projector()
    dp = projector_dP()
    conn = grassmann_connection()
    p_dp = FormMatrix([
        [p.m[a][0] * dp.m[0][c] + p.m[a][1] * dp.m[1][c] for c in (0, 1)]
        for a in (0, 1)])
    assert conn.star() == p_dp


def test_grassmann_connection_closed_form():
    conn = grassmann_connection()
    assert conn.degree == 1
    p = projector()
    dp = projector_dP()
    assert conn == dp @ p
    assert conn == grassmann_closed_form()


def test_curvature_factorizations():
    f12, f31, f23 = monopole_curvature()
    p = projector()
    lp_a = AlgElem.scalar(LP)
    i_lp = AlgElem.scalar(I * LP)
    zero = AlgElem.zero()
    assert f12 == 2 * (AlgMatrix([[X3 - lp_a, zero], [zero, X3 + lp_a]]) @ p)
    assert f31 == 2 * (AlgMatrix([[X2, i_lp], [-i_lp, X2]]) @ p)
    assert f23 == 2 * (AlgMatrix([[X1, lp_a], [lp_a, X1]]) @ p)


def test_curvature_lives_on_the_bundle():
    p = projector()
    for f in monopole_curvature():
        assert f @ p == f


def test_curvature_has_no_other_components():
    # Reassembling the three coefficient matrices must reproduce
    # dP ^ (dP)P exactly.
    p = projector()
    dp = projector_dP()
    curv = dp.wedge(dp @ p)
    f12, f31, f23 = monopole_curvature()
    scale = I * (ONE - LP) / 4
    s12 = s_basis(1).wedge(s_basis(2))
    s31 = s_basis(3).wedge(s_basis(1))
    s23 = s_basis(2).wedge(s_basis(3))
    rebuilt = None
    for f, w in ((f12, s12), (f31, s31), (f23, s23)):
        piece = FormMatrix([[scale * (f.m[a][c] * w) for c in (0, 1)]
                            for a in (0, 1)])
        rebuilt = piece if rebuilt is None else rebuilt + piece
    assert rebuilt == curv


def test_f23_factor_golden():
    # derived once by exact linear solve and frozen here
    lp_a = AlgElem.scalar(LP)
    assert f23_factor() == AlgMatrix([[X1, lp_a], [lp_a, X1]])


def test_f23_factor_reproduces_f23():
    p = projector()
    _, _, f23 = monopole_curvature()
    m = f23_factor()
    assert 2 * (m @ p) == f23


def test_alg_matrix_ops():
    p = projector()
    ident = AlgMatrix.identity()
    assert ident @ p == p
    assert p @ ident == p
    q = AlgMatrix([[X1, X2], [X3, AlgElem.one()]])
    assert (p @ q).star() == q.star() @ p.star()
    assert p + (-p) == AlgMatrix.zero()
    assert 2 * p == p + p


def test_form_matrix_degree_checks():
    s1 = s_basis(1)
    with pytest.raises(ValueError):
        FormMatrix([[s1, s1.wedge(s_basis(2))],
                    [s1, s1]])
    fm = FormMatrix([[s1, s1], [s1, s1]])
    assert fm.wedge(fm).degree == 2
    with pytest.raises(TypeError):
        fm.wedge(projector())


def test_alg_and_form_matrices_do_not_mix():
    s1 = s_basis(1)
    fm = FormMatrix([[s1, s1], [s1, s1]])
    with pytest.raises(TypeError):
        projector() + fm
    with pytest.raises(TypeError):
        projector() @ fm


def test_form_matrix_rendering():
    s1, s2, s3 = s_basis(1), s_basis(2), s_basis(3)
    fm = FormMatrix([[X1 * s1, LP * s2], [-s3, s1 + I * X2 * s3]])
    assert str(fm) == ("[[((1) * x1) s1, ((lp) * 1) s2],\n"
                       " [((-1) * 1) s3, ((1) * 1) s1 + ((i) * x2) s3]]")


def test_form_matrix_coefficient_extraction():
    dp = projector_dP()
    c1 = dp.coefficient_matrix(1)
    half = ParamScalar.of(Fraction(1, 2))
    assert c1.m[0][0] == half * X2
