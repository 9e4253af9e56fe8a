"""Tests of the benchmark's references against known answers.

    python3 -m pytest bench/test_reference.py -q
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import affine_spectra as api  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _binary(x: Fraction, n: int):
    bits = []
    for _ in range(n):
        x *= 2
        bits.append(int(x >= 1))
        x -= bits[-1]
    return bits


@pytest.mark.parametrize("x", [0.1, 0.375, 0.7, 1 / 3, Fraction(1, 3),
                               Fraction(2, 7), 0.999])
def test_phi_parabola(x):
    ex = ref.ExactSystem(api.parse_preset("takagi:2"))
    value, rem = ref.phi_exact(ex, x, 1e-20)
    fx = Fraction(x)
    assert rem <= Fraction(1e-20)
    assert abs(value - 2 * fx * (1 - fx)) <= rem


@pytest.mark.parametrize("stem", [(), (1,), (3,), (1, 3), (3, 1, 1), (2, 3),
                                  (1, 1, 3, 3)])
@pytest.mark.parametrize("vertex", [1, 2])
def test_phi_cantor_at_ternary_points(stem, vertex):
    # okamoto:0.5 is the Cantor function: C(S_1 t) = C(t)/2, C = 1/2 on the
    # middle third, C(S_3 t) = 1/2 + C(t)/2, C(x_1) = C(x_2) = 1/2
    system = api.parse_preset("okamoto:0.5")
    x = workloads.vertex_image(system, stem, vertex)
    want = Fraction(1, 2)
    for k in reversed(stem):
        want = {1: want / 2, 2: Fraction(1, 2), 3: (1 + want) / 2}[k]
    value, rem = ref.phi_exact(ref.ExactSystem(system), x, 1e-20)
    assert rem == 0
    assert value == want


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                               Fraction(5, 8), Fraction(13, 32), 0.8125])
def test_phi_riesz_nagy_at_dyadics(x):
    # phi(t/2) = a phi(t), phi(1/2 + t/2) = a + (1 - a) phi(t), phi(0) = 0,
    # with a and 1 - a as stored (1 - 0.3 is rounded)
    system = api.parse_preset("riesz-nagy:0.3")
    a, b = Fraction(system.d[0]), Fraction(system.d[1])
    assert Fraction(system.e[1]) == a and system.c == (0.0, 0.0)
    want = Fraction(0)
    for bit in reversed(_binary(Fraction(x), 10)):
        want = a + b * want if bit else a * want
    value, rem = ref.phi_exact(ref.ExactSystem(system), x, 1e-20)
    assert rem == 0
    assert value == want


def test_digits_exact_binary_and_vertex_images():
    takagi = api.parse_preset("takagi:0.5")
    x = 0.1234567
    assert ref.digits_exact(takagi, x, 40) == tuple(b + 1 for b in _binary(Fraction(x), 40))
    # 0.625 = 0.101b sits on a vertex image: right coding, then all 1s
    assert ref.digits_exact(takagi, 0.625, 8) == (2, 1, 2, 1, 1, 1, 1, 1)
    okamoto = api.parse_preset("okamoto:0.6")
    x = workloads.vertex_image(okamoto, (3, 1, 2), 1)
    assert ref.digits_exact(okamoto, x, 7) == (3, 1, 2, 2, 1, 1, 1)


def test_beta_and_conjugate_against_closed_forms():
    # equal widths 1/2: beta(q) = log2(d1^q + d2^q)
    a, d = (0.5, 0.5), (0.3, 0.7)
    for q in (-3.0, -0.5, 0.0, 1.0, 4.0):
        want = math.log2(0.3 ** q + 0.7 ** q)
        assert ref.beta_mp(a, d, q) == pytest.approx(want, abs=1e-13)
    # beta*(alpha) = H(p) / log 2 at alpha = -(p log d1 + (1-p) log d2) / log 2
    for p in (0.1, 0.3, 0.5, 0.8):
        alpha = -(p * math.log(0.3) + (1 - p) * math.log(0.7)) / math.log(2)
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p)) / math.log(2)
        assert ref.beta_star_mp(a, d, alpha) == pytest.approx(entropy, abs=1e-12)


def test_partition_exponents():
    assert ref.partition_exponent_mp([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert ref.partition_exponent_mp([0.25]) == 0.0
    assert ref.partition_exponent_mp([1 / 3, 1 / 3]) == pytest.approx(
        math.log(2) / math.log(3), abs=1e-15)
    # (1/4 / 1/2)^sigma * 2 = 1
    assert ref.sigma_mp((0.5, 0.5), (0.25, 0.25)) == pytest.approx(1.0, abs=1e-15)


def test_derivative_closed_form():
    skew = api.parse_preset("skew-takagi:0.3,0.5,0.25")
    left = ref.derivative_exact(skew, (1,), (2,))
    right = ref.derivative_exact(skew, (2,), (1,))
    assert float(left) == pytest.approx(20 / 27, abs=1e-12)
    assert float(right) == pytest.approx(20 / 7, abs=1e-12)
    # the parabola at 1/3 = 0.(01)b: phi'(x) = 2 - 4x
    assert ref.derivative_exact(api.parse_preset("takagi:2"), (), (1, 2)) == Fraction(2, 3)


def test_overlap_set_and_regime():
    # the parabola is smooth at 1/2; skew-takagi has a corner there
    takagi2 = api.parse_preset("takagi:2")
    assert ref.overlap_set(takagi2) == frozenset()
    assert not ref.is_case_b(takagi2)
    skew = api.parse_preset("skew-takagi:0.3,0.5,0.25")
    assert ref.overlap_set(skew) == {1}
    assert ref.is_case_b(skew)
    # |d_2| >= a_2: not Case B, and the one-sided series need not converge
    assert not ref.is_case_b(api.parse_preset("riesz-nagy:0.3"))
    with pytest.raises(ValueError):
        ref.overlap_set(api.parse_preset("okamoto:0.6"))


@pytest.mark.parametrize("a1, y1, d1, d2", [
    (0.4, 0.7, 0.1, -0.2), (0.5, 0.3, 0.2, 0.3), (0.3, -0.5, -0.1, 0.35),
    # d_1/a_1 + d_2/a_2 = 1: phi is smooth at x_1
    (0.5, 0.5, 0.25, 0.25), (0.4, 0.2, 0.2, 0.3),
    # proportional shears: phi is the identity
    (0.4, 0.4, 0.1, 0.2),
])
def test_two_branch_overlap_criterion(a1, y1, d1, d2):
    # for r = 2 with |d_k| < a_k the vertex is out of the overlap set iff
    # c_1/(a_1 - d_1) = c_2/(a_2 - d_2) or d_1/a_1 + d_2/a_2 = 1
    system = api.build_from_polygon([(0.0, 0.0), (a1, y1), (1.0, 1.0)], (d1, d2))
    (a_1, a_2), (c1, c2) = system.a, system.c
    smooth = (math.isclose(c1 / (a_1 - d1), c2 / (a_2 - d2), abs_tol=1e-12)
              or math.isclose(d1 / a_1 + d2 / a_2, 1.0, abs_tol=1e-12))
    assert ref.overlap_set(system) == (frozenset() if smooth else {1})


def test_exponent_closed_forms():
    takagi = api.parse_preset("takagi:0.5")
    assert ref.ae_exponent(takagi) == pytest.approx(0.5, abs=1e-15)
    assert ref.ratio(takagi, (1, 2, 2)) == pytest.approx(0.5, abs=1e-15)
    rn = api.parse_preset("riesz-nagy:0.3")
    assert ref.rho(rn, 1) == pytest.approx(math.log(0.3) / math.log(0.5))
    assert math.isinf(ref.ae_exponent(api.parse_preset("okamoto:0.5")))
    digits = (1, 2, 1, 2)
    plain = [ref.ratio(rn, digits[:n]) for n in (3, 4)]
    assert ref.tail_window_min_ratio(rn, digits) == min(plain)


def test_phi_check_flags_the_known_fault_only():
    # evaluate_many leaves its bound on okamoto:5/6 and keeps it on takagi
    for name, faulty in (("okamoto:5/6", True), ("takagi:0.5", False)):
        system = api.parse_preset(name)
        res = api.evaluate(system, 0.7, workloads.TOL)
        bad = workloads._phi_failure(ref.ExactSystem(system), 0.7, res.value,
                                     res.error_bound)
        assert (bad is not None) == faulty
