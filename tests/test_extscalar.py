import cmath
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from hypertri.errors import UndefinedComparison
from hypertri.extscalar import ExtLength, Quantum, ext_cosh, ext_tanh
from hypertri.registry import SEGMENT_CASES

INF = math.inf

finite_reals = st.floats(min_value=-30, max_value=30,
                         allow_nan=False, allow_infinity=False)
quanta = st.sampled_from(list(Quantum))


class TestHyperbolicFunctions:
    def test_tanh_infinity(self):
        assert ext_tanh(ExtLength(INF)) == 1
        assert ext_tanh(ExtLength(-INF)) == -1

    def test_cosh_infinity(self):
        assert ext_cosh(ExtLength(INF)).real == INF
        assert ext_cosh(ExtLength(-INF)).real == INF

    def test_cosh_zero(self):
        assert ext_cosh(ExtLength(0.0)) == 1

    @given(finite_reals, quanta)
    def test_matches_complex_exponential(self, d, q):
        z = complex(d, q.radians)
        x = ExtLength(d, q)
        assert cmath.isclose(ext_cosh(x), cmath.cosh(z), rel_tol=1e-12, abs_tol=1e-12)

    @given(st.floats(min_value=1e-3, max_value=30), quanta)
    def test_tanh_matches_complex_exponential(self, d, q):
        z = complex(d, q.radians)
        assert cmath.isclose(ext_tanh(ExtLength(d, q)), cmath.tanh(z),
                             rel_tol=1e-12, abs_tol=1e-12)


class TestComparisons:
    def test_order_within_quantum(self):
        assert ExtLength(1.0) < ExtLength(2.0)
        assert ExtLength(-INF) < ExtLength(5.0) < ExtLength(INF)

    def test_order_across_quanta_is_undefined(self):
        with pytest.raises(UndefinedComparison):
            ExtLength(1.0) < ExtLength(2.0, Quantum.HALF_PI)


class TestAddition:
    def test_infinity_normalizes_quantum(self):
        # inf + b*i = inf + 0*i
        assert ExtLength(INF, Quantum.HALF_PI).im is Quantum.ZERO


# The segment tables are the cells of the catalogue `registry.SEGMENT_CASES`,
# each ending in its expected (AB, BA) pair; these tests pin its values.

def _lengths(name, d=None):
    return SEGMENT_CASES[name][-1](d)


class TestComplement:
    @given(st.floats(min_value=0, max_value=30), quanta)
    def test_complement_sums_to_pi_i(self, d, q):
        # the real-line cell whose AB carries quantum q
        name = {Quantum.ZERO: "RR", Quantum.HALF_PI: "RId", Quantum.PI: "IdId"}[q]
        ab, ba = _lengths(name, d)
        assert ab == ExtLength(d, q)
        total = complex(ab.re + ba.re, ab.im.radians + ba.im.radians)
        assert total == pytest.approx(complex(0.0, math.pi))


class TestSegmentTables:
    def test_real_real(self):
        ab, ba = _lengths("RR", 2.0)
        assert ab == ExtLength(2.0)
        assert ba == ExtLength(-2.0, Quantum.PI)

    def test_real_infinite(self):
        assert _lengths("RIn") == (ExtLength(INF), ExtLength(-INF))

    def test_real_ideal(self):
        ab, ba = _lengths("RId", 0.3)
        assert ab == ExtLength(0.3, Quantum.HALF_PI)
        assert ba == ExtLength(-0.3, Quantum.HALF_PI)

    def test_ideal_ideal_real_line(self):
        ab, ba = _lengths("IdId", 1.1)
        assert ab == ExtLength(1.1, Quantum.PI)
        assert ba == ExtLength(-1.1)

    def test_infinity_line_cells(self):
        h = ExtLength(0.0, Quantum.HALF_PI)
        assert _lengths("InIn@inf") == (ExtLength(0.0), ExtLength(0.0, Quantum.PI))
        assert _lengths("InId@inf") == (h, h)
        assert _lengths("IdId@inf") == (ExtLength(0.0), ExtLength(0.0, Quantum.PI))

    def test_real_line_infinite_pairs(self):
        assert _lengths("InIn") == (ExtLength(INF), ExtLength(-INF))
        assert _lengths("InId") == (ExtLength(INF), ExtLength(-INF))

    @given(st.floats(min_value=0, max_value=30))
    def test_complementarity_across_the_table(self, d):
        # AB + BA = pi*i: opposite real parts, and quanta summing to PI for
        # every finite pair (a pair reaching the boundary is inf and -inf)
        for name in SEGMENT_CASES:
            ab, ba = _lengths(name, d)
            assert ab.re == -ba.re, name
            if ab.finite:
                assert ab.im.value + ba.im.value == Quantum.PI.value, name


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
