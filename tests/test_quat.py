import math

from hypothesis import given, strategies as st

from qjulia import quat
from qjulia.quat import Quaternion

import pytest


components = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def quaternions(elems=components):
    return st.builds(Quaternion, elems, elems, elems, elems)


def rel_err(a: Quaternion, b: Quaternion) -> float:
    return quat.distance(a, b) / max(1.0, quat.norm(a), quat.norm(b))


I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def test_mul_basis_table():
    assert quat.mul(I, J) == K
    assert quat.mul(J, I) == Quaternion(0.0, 0.0, 0.0, -1.0)
    assert quat.mul(J, K) == I
    assert quat.mul(K, I) == J


def test_mul_hand_expansion():
    a = Quaternion(1.0, 1.0, 0.0, 0.0)
    b = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert quat.mul(a, b) == Quaternion(1.0, 1.0, 1.0, 1.0)


def test_add_sub():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert quat.add(q, quat.ZERO) == q
    assert quat.sub(q, q) == quat.ZERO
    assert quat.add(quat.ONE, I) == Quaternion(1.0, 1.0, 0.0, 0.0)


def test_conj_norms():
    assert quat.conj(Quaternion(1.0, 2.0, 3.0, 4.0)) == Quaternion(1.0, -2.0, -3.0, -4.0)
    assert quat.norm_sq(Quaternion(1.0, 1.0, 1.0, 1.0)) == 4.0
    assert quat.norm(Quaternion(0.0, 3.0, 4.0, 0.0)) == 5.0


def test_inverse_examples():
    assert quat.inverse(Quaternion(2.0, 0.0, 0.0, 0.0)) == Quaternion(0.5, 0.0, 0.0, 0.0)
    assert quat.inverse(I) == Quaternion(0.0, -1.0, 0.0, 0.0)
    assert quat.inverse(Quaternion(1.0, 1.0, 1.0, 1.0)) == Quaternion(0.25, -0.25, -0.25, -0.25)


def test_inverse_near_zero_raises():
    with pytest.raises(quat.DivisionByNearZero):
        quat.inverse(quat.ZERO)
    with pytest.raises(quat.DivisionByNearZero):
        quat.inverse(Quaternion(1e-200, 0.0, 0.0, 0.0))


def test_distance():
    q = Quaternion(3.0, -1.0, 0.5, 2.0)
    assert quat.distance(q, q) == 0.0
    assert quat.distance(quat.ONE, quat.ZERO) == 1.0
    a = Quaternion(1.0, 1.0, 0.0, 0.0)
    b = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert quat.distance(a, b) == math.sqrt(2.0)


def test_is_finite():
    assert quat.is_finite(Quaternion(1.0, 2.0, 3.0, 4.0))
    assert not quat.is_finite(Quaternion(math.inf, 0.0, 0.0, 0.0))
    assert not quat.is_finite(Quaternion(0.0, math.nan, 0.0, 0.0))


@given(quaternions(), quaternions(), quaternions())
def test_mul_associative(a, b, c):
    lhs = quat.mul(quat.mul(a, b), c)
    rhs = quat.mul(a, quat.mul(b, c))
    assert rel_err(lhs, rhs) <= 1e-10


@given(quaternions(), quaternions())
def test_norm_multiplicative(a, b):
    lhs = quat.norm(quat.mul(a, b))
    rhs = quat.norm(a) * quat.norm(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs, rhs)


@given(quaternions(), quaternions())
def test_conj_anti_homomorphism(a, b):
    lhs = quat.conj(quat.mul(a, b))
    rhs = quat.mul(quat.conj(b), quat.conj(a))
    assert rel_err(lhs, rhs) <= 1e-12


@given(
    quaternions().filter(lambda q: quat.norm(q) > 1e-3),
    st.integers(min_value=-3, max_value=3),
)
def test_inverse_identity(a, exp10):
    a = quat.scale(a, 10.0 ** exp10)
    prod = quat.mul(a, quat.inverse(a))
    diff = quat.sub(prod, quat.ONE)
    assert max(abs(diff.r), abs(diff.m), abs(diff.n), abs(diff.p)) <= 1e-12


@given(components, components)
def test_real_subfield_bit_exact(x, y):
    qx = Quaternion(x, 0.0, 0.0, 0.0)
    qy = Quaternion(y, 0.0, 0.0, 0.0)
    s = quat.add(qx, qy)
    m = quat.mul(qx, qy)
    assert s.r == x + y and (s.m, s.n, s.p) == (0.0, 0.0, 0.0)
    assert m.r == x * y and (m.m, m.n, m.p) == (0.0, 0.0, 0.0)


@given(quaternions(), quaternions())
def test_conj_is_involution_and_norm_preserving(a, b):
    assert quat.conj(quat.conj(a)) == a
    assert quat.norm(quat.conj(b)) == quat.norm(b)
