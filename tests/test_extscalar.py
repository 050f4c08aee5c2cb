import cmath
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from hypertri.errors import (
    ImaginaryOverflow,
    UndefinedComparison,
    UndefinedProduct,
    UnsupportedConfiguration,
)
from hypertri.extscalar import (
    ExtLength,
    PointKind,
    PureImaginary,
    Quantum,
    ext_add,
    ext_cosh,
    ext_coth,
    ext_mul,
    ext_sinh,
    ext_sub_real,
    ext_tanh,
    segment_lengths,
)

INF = math.inf
R, IN, ID = PointKind.REAL, PointKind.INFINITE, PointKind.IDEAL

finite_reals = st.floats(min_value=-30, max_value=30,
                         allow_nan=False, allow_infinity=False)
quanta = st.sampled_from(list(Quantum))


class TestAddition:
    def test_opposite_infinities_cancel(self):
        assert ext_add(ExtLength(INF), ExtLength(-INF)) == ExtLength(0.0)

    def test_same_infinities(self):
        assert ext_add(ExtLength(INF), ExtLength(INF)) == ExtLength(INF)
        assert ext_add(ExtLength(-INF), ExtLength(-INF)) == ExtLength(-INF)

    def test_infinity_absorbs_finite(self):
        assert ext_add(ExtLength(INF), ExtLength(123.0, Quantum.PI)) == ExtLength(INF)
        assert ext_add(ExtLength(-5.0), ExtLength(-INF)) == ExtLength(-INF)

    def test_complementary_mixed_pair(self):
        total = ext_add(ExtLength(0.7, Quantum.HALF_PI), ExtLength(-0.7, Quantum.HALF_PI))
        assert total == ExtLength(0.0, Quantum.PI)

    def test_additive_identity(self):
        assert ext_add(ExtLength(3.0), ExtLength(0.0)) == ExtLength(3.0)

    def test_imaginary_overflow(self):
        with pytest.raises(ImaginaryOverflow):
            ext_add(ExtLength(0.0, Quantum.PI), ExtLength(0.0, Quantum.HALF_PI))

    def test_infinity_normalizes_quantum(self):
        assert ExtLength(INF, Quantum.HALF_PI).im is Quantum.ZERO

    @given(finite_reals, finite_reals)
    def test_associative_with_one_infinity(self, a, b):
        for inf in (ExtLength(INF), ExtLength(-INF)):
            x, y, z = ExtLength(a), ExtLength(b), inf
            assert ext_add(ext_add(x, y), z) == ext_add(x, ext_add(y, z))
            assert ext_add(ext_add(x, z), y) == ext_add(x, ext_add(z, y))

    @given(finite_reals)
    def test_associative_with_two_like_infinities(self, a):
        x, y, z = ExtLength(a), ExtLength(INF), ExtLength(INF)
        assert ext_add(ext_add(x, y), z) == ext_add(x, ext_add(y, z))

    def test_mixed_sign_infinities_break_associativity(self):
        # absorption makes (a + inf) + (-inf) = 0 while a + (inf + (-inf)) = a,
        # so even two infinite operands are unsafe when their signs differ
        a = ExtLength(3.0)
        left = ext_add(ext_add(a, ExtLength(INF)), ExtLength(-INF))
        right = ext_add(a, ext_add(ExtLength(INF), ExtLength(-INF)))
        assert left == ExtLength(0.0)
        assert right == a
        assert left != right

    @given(finite_reals, finite_reals)
    def test_finite_addition_is_componentwise(self, a, b):
        out = ext_add(ExtLength(a, Quantum.HALF_PI), ExtLength(b))
        assert out.re == a + b and out.im is Quantum.HALF_PI


class TestHyperbolicFunctions:
    def test_tanh_infinity(self):
        assert ext_tanh(ExtLength(INF)) == 1
        assert ext_tanh(ExtLength(-INF)) == -1

    def test_cosh_sinh_infinity(self):
        assert ext_cosh(ExtLength(INF)).real == INF
        assert ext_sinh(ExtLength(-INF)).real == -INF
        assert ext_coth(ExtLength(INF)) == 1

    def test_cosh_zero(self):
        assert ext_cosh(ExtLength(0.0)) == 1

    def test_sinh_half_pi_quantum(self):
        # sinh(d + i pi/2) = i cosh d, checked at d = 0.5
        got = ext_sinh(ExtLength(0.5, Quantum.HALF_PI))
        assert got == pytest.approx(complex(0.0, math.cosh(0.5)))

    @given(finite_reals, quanta)
    def test_matches_complex_exponential(self, d, q):
        z = complex(d, q.radians)
        x = ExtLength(d, q)
        assert cmath.isclose(ext_cosh(x), cmath.cosh(z), rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(ext_sinh(x), cmath.sinh(z), rel_tol=1e-12, abs_tol=1e-12)

    @given(st.floats(min_value=1e-3, max_value=30), quanta)
    def test_tanh_matches_complex_exponential(self, d, q):
        z = complex(d, q.radians)
        assert cmath.isclose(ext_tanh(ExtLength(d, q)), cmath.tanh(z),
                             rel_tol=1e-12, abs_tol=1e-12)

    @given(finite_reals, quanta)
    def test_cosh_sq_minus_sinh_sq(self, d, q):
        x = ExtLength(d, q)
        val = ext_cosh(x) ** 2 - ext_sinh(x) ** 2
        assert abs(val - 1.0) < 1e-12 * max(1.0, abs(ext_cosh(x)) ** 2)


class TestComparisonsAndProducts:
    def test_order_within_quantum(self):
        assert ExtLength(1.0) < ExtLength(2.0)
        assert ExtLength(-INF) < ExtLength(5.0) < ExtLength(INF)

    def test_order_across_quanta_is_undefined(self):
        with pytest.raises(UndefinedComparison):
            ExtLength(1.0) < ExtLength(2.0, Quantum.HALF_PI)

    def test_products(self):
        assert ext_mul(2.0, ExtLength(3.0)) == ExtLength(6.0)
        assert ext_mul(-2.0, ExtLength(INF)) == ExtLength(-INF)
        with pytest.raises(UndefinedProduct):
            ext_mul(0.0, ExtLength(INF))
        with pytest.raises(UndefinedProduct):
            ext_mul(2.0, ExtLength(1.0, Quantum.HALF_PI))

    def test_sub_real(self):
        assert ext_sub_real(ExtLength(1.0, Quantum.HALF_PI), 0.25) == \
            ExtLength(0.75, Quantum.HALF_PI)
        assert ext_sub_real(ExtLength(INF), 7.0) == ExtLength(INF)


class TestComplement:
    @given(finite_reals, quanta)
    def test_complement_sums_to_pi_i(self, d, q):
        x = ExtLength(d, q)
        total = ext_add(x, x.complement())
        assert total == ExtLength(0.0, Quantum.PI)

    def test_infinite_complement(self):
        assert ExtLength(INF).complement() == ExtLength(-INF)

    def test_pure_imaginary_complement(self):
        seg = PureImaginary(0.8)
        assert seg.complement().magnitude == pytest.approx(math.pi - 0.8)
        assert (seg.as_complex() + seg.complement().as_complex()) == \
            pytest.approx(complex(0, math.pi))


class TestSegmentTables:
    def test_real_real(self):
        ab, ba = segment_lengths(R, R, 2.0)
        assert ab == ExtLength(2.0)
        assert ba == ExtLength(-2.0, Quantum.PI)

    def test_real_infinite(self):
        assert segment_lengths(R, IN) == (ExtLength(INF), ExtLength(-INF))

    def test_real_ideal(self):
        ab, ba = segment_lengths(R, ID, 0.3)
        assert ab == ExtLength(0.3, Quantum.HALF_PI)
        assert ba == ExtLength(-0.3, Quantum.HALF_PI)

    def test_ideal_ideal_real_line(self):
        ab, ba = segment_lengths(ID, ID, 1.1)
        assert ab == ExtLength(1.1, Quantum.PI)
        assert ba == ExtLength(-1.1)

    def test_infinite_pairs_default_to_the_infinity_line(self):
        assert segment_lengths(IN, IN) == \
            (ExtLength(0.0), ExtLength(0.0, Quantum.PI))

    def test_infinity_line_cells(self):
        h = ExtLength(0.0, Quantum.HALF_PI)
        assert segment_lengths(IN, ID, line="infinity") == (h, h)
        assert segment_lengths(ID, ID, line="infinity") == \
            (ExtLength(0.0), ExtLength(0.0, Quantum.PI))

    def test_real_line_infinite_pairs(self):
        assert segment_lengths(IN, IN, line="real") == \
            (ExtLength(INF), ExtLength(-INF))
        assert segment_lengths(IN, ID, line="real") == \
            (ExtLength(INF), ExtLength(-INF))

    @given(st.floats(min_value=0, max_value=30))
    def test_complementarity_across_the_table(self, d):
        for kinds, needs_d in (((R, R), True), ((R, ID), True), ((ID, ID), True),
                               ((IN, IN), False), ((IN, ID), False)):
            pair = segment_lengths(*kinds, d=d if needs_d else None,
                                   line=None if needs_d else "infinity")
            if pair[0].finite and pair[1].finite:
                assert ext_add(*pair) == ExtLength(0.0, Quantum.PI)

    def test_unsupported(self):
        with pytest.raises(UnsupportedConfiguration):
            segment_lengths(R, R, 1.0, line="infinity")
        with pytest.raises(UnsupportedConfiguration):
            segment_lengths(R, R)  # distance required
        with pytest.raises(UnsupportedConfiguration):
            segment_lengths(R, ID, d=-1.0)


class TestSerialization:
    @given(finite_reals, quanta)
    def test_round_trip(self, d, q):
        x = ExtLength(d, q)
        assert ExtLength.from_json(x.to_json()) == x

    def test_infinity_encoding(self):
        assert ExtLength(INF).to_json() == {"re": "inf", "im": 0}
        assert ExtLength(-INF).to_json() == {"re": "-inf", "im": 0}
        assert ExtLength(0.5, Quantum.HALF_PI).to_json() == {"re": 0.5, "im": "pi/2"}
        assert ExtLength(-0.5, Quantum.PI).to_json() == {"re": -0.5, "im": "pi"}
        assert ExtLength.from_json({"re": "-inf", "im": "pi"}) == ExtLength(-INF)


class TestValueType:
    def test_immutable(self):
        x = ExtLength(1.0, Quantum.PI)
        with pytest.raises(AttributeError):
            x.re = 2.0
        with pytest.raises(AttributeError):
            x.other = 2.0

    def test_equal_values_give_equal_hashes(self):
        assert hash(ExtLength(0.5, Quantum.PI)) == hash(ExtLength(0.5, Quantum.PI))
        assert ExtLength(2.0) == ExtLength(2.0, Quantum.ZERO) == (2.0, Quantum.ZERO)
        assert len({ExtLength(INF, Quantum.HALF_PI), ExtLength(INF)}) == 1

    @pytest.mark.parametrize("x", [ExtLength(0.5, Quantum.HALF_PI), ExtLength(-INF)])
    def test_pickling_keeps_the_type(self, x):
        back = pickle.loads(pickle.dumps(x))
        assert back.__class__ is ExtLength and back == x and back.im is x.im

    def test_constructor_rules(self):
        assert ExtLength(INF, Quantum.HALF_PI).im is Quantum.ZERO
        assert ExtLength(-INF, Quantum.PI).im is Quantum.ZERO
        assert ExtLength(1.0, Quantum.HALF_PI).im is Quantum.HALF_PI
        with pytest.raises(ValueError):
            ExtLength(math.nan)
        with pytest.raises(ValueError):
            ExtLength(math.nan, Quantum.PI)
        assert ExtLength(1.0, Quantum.PI)._replace(re=INF).im is Quantum.ZERO
        with pytest.raises(ValueError):
            ExtLength(1.0)._replace(re=math.nan)

    def test_order_stays_defined_on_lengths_only(self):
        assert ExtLength(1.0) < ExtLength(2.0) and ExtLength(3.0) >= ExtLength(3.0)
        with pytest.raises(UndefinedComparison):
            ExtLength(1.0) < ExtLength(2.0, Quantum.PI)
        with pytest.raises(TypeError):
            ExtLength(1.0) < (2.0, Quantum.ZERO)
