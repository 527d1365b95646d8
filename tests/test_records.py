"""The result records are named tuples, and `import remsum` loads no more of
the standard library than the package uses."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from remsum import cfrac, dirichlet, farey, measure, sums
from remsum.exactnum import QuadExt

SRC = Path(farey.__file__).resolve().parents[1]


def test_import_loads_no_introspection_modules():
    # -S: no site hooks, so only remsum's own imports can load these
    code = ("import sys, remsum, remsum.cli\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis',"
            " 'tokenize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_series_eval_defaults_to_strict():
    e = dirichlet.SeriesEval(1j, 10, 0.5)
    assert e.mode == "strict" and e == (1j, 10, 0.5, "strict")
    assert repr(e) == ("SeriesEval(value=1j, truncation_K=10, tail_bound=0.5,"
                       " mode='strict')")


def test_cf_expansion_validates_and_hashes():
    with pytest.raises(ValueError, match=">= 1"):
        cfrac.CFExpansion(0, (1, 0))
    with pytest.raises(ValueError, match=">= 1"):
        cfrac.CFExpansion(0, (), (2, -1))
    cf = cfrac.CFExpansion(0, period=(1,))
    assert cf == cfrac.parse_cf("0;(1)") and cf.pre == () and not cf.is_finite
    assert hash(cf) == hash(cfrac.CFExpansion(0, (), (1,)))
    assert {cf: 1}[cfrac.expand(QuadExt(-1, 1, 5, 2), 64)] == 1
    assert str(cf) == "0;(1)" and cf.coeff(7) == 1
    assert repr(cfrac.CFExpansion(2, (3,))) == \
        "CFExpansion(lambda0=2, pre=(3,), period=())"


def test_measure_set_asserts_its_bracket():
    m = measure.measure_exact((3, 3))
    assert m == measure.MeasureSet(*m)
    with pytest.raises(AssertionError):
        measure.MeasureSet((3,), F(1), F(0), F(1, 2))


def test_arith_tables_compare_field_wise_and_keep_the_lazy_prefix():
    a, b = farey.build_tables(50), farey.build_tables(50)
    assert a == b and a != farey.build_tables(51)
    # the lazy fixed-point prefix is built on first use, outside the fields
    assert "_s_fixed" not in vars(a)
    assert a._s_fixed[50] == sum((a.phi[k] << 96) // k for k in range(1, 51))
    assert a._s_fixed is a._s_fixed and a == b


def test_steps_repr_field_wise():
    _, trace = sums.bseq_S(5, F(2, 5) + QuadExt(0, 1, 2, 100))
    step = trace.steps[0]
    assert isinstance(step, sums.BseqStep) and step == tuple(step)
    assert repr(step) == ("BseqStep(j=0, n_j=5, t_j=QuadExt(40, 1, 2, 100), "
                          "term=QuadExt(150, -603, 2, 15980))")
