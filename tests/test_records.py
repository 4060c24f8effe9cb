"""The contract of the record types: equality, hashing, immutability,
field defaults, repr and validation, one instance of each record."""

from fractions import Fraction

import pytest

from supervir.fock import FieldContent, FockState
from supervir.halfint import half
from supervir.oscillators import BilinearSpec, _boson, _fermion, bilinear_mode, tail_sum
from supervir.realizations import RealizationParams
from supervir.scalars import GaussianRational
from supervir.superalg import GeneratorFamily, GramMatrix, LowestWeightData, PsdResult
from supervir.verify import CheckReport, ResidualEntry


def _assert_value_record(make, other):
    """Equal fields give equal, equally hashed records; `other` differs."""
    a, b = make(), make()
    assert a == b and not (a != b) and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2


def _assert_frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def _assert_mutable_value_record(make, other, field, value):
    """Equal fields compare equal, the record is unhashable, and a field
    can be reassigned."""
    a = make()
    assert a == make() and a != other
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, field, value)
    assert getattr(a, field) == value and a != make()


# -- fock --------------------------------------------------------------------


def test_field_content_record():
    _assert_value_record(lambda: FieldContent(1, 2), FieldContent(2, 1))
    _assert_frozen(FieldContent(1, 2), "bosons")
    assert repr(FieldContent(1, 2)) == "FieldContent(bosons=1, fermions=2)"
    assert FieldContent(bosons=2, fermions=0).fermions == 0
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="species counts must be nonnegative"):
            FieldContent(*bad)


def test_fock_state_record():
    make = lambda: FockState(((2, 1),), ((3,),))
    _assert_value_record(make, FockState(((2,),), ((3,),)))
    _assert_frozen(make(), "bosons")
    assert repr(make()) == "|J0[-2] J0[-1] F0[-3/2]>"
    assert repr(FockState.vacuum(FieldContent(1, 1))) == "|0>"
    assert make().content == FieldContent(1, 1) and make().weight == half(9) and make().parity == 1


# -- oscillators -----------------------------------------------------------------


def test_single_mode_primitives_are_interned_and_frozen():
    for make, other in ((lambda: _boson(0, 1), _boson(0, 2)), (lambda: _fermion(1, -3), _fermion(1, 3))):
        _assert_value_record(make, other)
        _assert_frozen(make(), "species")
    assert _boson(0, 1) != _fermion(0, 1)
    assert _boson(0, 2).need == (0, 0, 2) and _boson(0, -2).need is None and _boson(0, 0).need == (0, 0, 0)
    assert _fermion(1, 3).need == (1, 1, 3) and _fermion(1, -3).need is None
    assert (_boson(0, 2).parity, _fermion(1, 3).parity) == (0, 1)
    assert (_boson(0, 2).weight_shift, _fermion(1, -3).weight_shift) == (half(4), half(-3))
    assert repr(_boson(0, 2)) == "_BosonMode(species=0, m=2)"
    assert repr(_fermion(1, -3)) == "_FermionMode(species=1, n_twice=-3)"


def test_bilinear_spec_record():
    make = lambda: BilinearSpec("J", 0, "Phi", 1)
    _assert_value_record(make, BilinearSpec("J", 1, "Phi", 0))
    _assert_frozen(make(), "left_kind")
    assert repr(make()) == "BilinearSpec(left_kind='J', left_species=0, right_kind='Phi', right_species=1)"
    assert (make().left_parity, make().right_parity, make().mode_is_integer) == (0, 1, False)
    for bad in (("Phi", 0, "J", 0), ("dPhi", 0, "J", 0), ("J", 0, "dPhi", 0)):
        with pytest.raises(ValueError, match="unsupported bilinear shape"):
            BilinearSpec(*bad)


def test_factory_made_primitives_are_shared_and_frozen():
    spec = BilinearSpec("dPhi", 0, "Phi", 0)
    bilinear = lambda: bilinear_mode(spec, half(2)).terms[0][2][0]
    tail = lambda: tail_sum("Phi", 1, half(-1)).terms[0][2][0]
    for make, other, field in ((bilinear, bilinear_mode(spec, half(4)).terms[0][2][0], "k_twice"),
                               (tail, tail_sum("Phi", 1, half(1)).terms[0][2][0], "m_twice")):
        assert make() is make()
        _assert_value_record(make, other)
        _assert_frozen(make(), field)
    assert (bilinear().spec, bilinear().k_twice, bilinear().denominator, bilinear().parity) == (spec, 2, 2, 0)
    assert bilinear().weight_shift == half(2)
    assert (tail().kind, tail().species, tail().m_twice, tail().parity, tail().weight_shift) == ("Phi", 1, -1, 1, None)


# -- realizations ------------------------------------------------------------------


def test_realization_params_record():
    make = lambda: RealizationParams("n2", "unitary", Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7))
    _assert_value_record(make, RealizationParams("n2", "unitary", Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)))
    _assert_frozen(make(), "kappa")
    assert repr(make()) == ("RealizationParams(family='n2', variant='unitary', kappa=Fraction(1, 3), "
                            "eta=Fraction(2, 5), omega=Fraction(-3, 7))")
    default = RealizationParams("ns", "bs")
    assert (default.kappa, default.eta, default.omega) == (0, 0, 0)
    assert RealizationParams(family="ns", variant="bs", kappa=Fraction(0)) == default
    for args, message in ((("vir", "bs"), "unknown family 'vir'"),
                          (("ns", "plain"), "unknown variant 'plain'"),
                          (("ns", "bs", Fraction(1), Fraction(1)), "eta/omega only parameterize the unitary variant"),
                          (("ns", "unitary", 0, 0, Fraction(1)), "omega only parameterizes the n2 family")):
        with pytest.raises(ValueError, match=message):
            RealizationParams(*args)


# -- superalg ------------------------------------------------------------------------


def test_generator_family_record():
    _assert_value_record(lambda: GeneratorFamily("G", 1, False), GeneratorFamily("G", 0, False))
    _assert_frozen(GeneratorFamily("G", 1, False), "parity")
    assert repr(GeneratorFamily("G", 1, False)) == "GeneratorFamily(name='G', parity=1, integer_moded=False)"


def test_lowest_weight_data_record():
    make = lambda: LowestWeightData(Fraction(7, 10), Fraction(3, 80))
    _assert_value_record(make, LowestWeightData(Fraction(7, 10), Fraction(3, 80), Fraction(0)))
    _assert_frozen(make(), "c")
    assert repr(make()) == "LowestWeightData(c=Fraction(7, 10), h=Fraction(3, 80), q=None, vacuum_flag=False)"
    default = LowestWeightData(Fraction(1))
    assert (default.h, default.q, default.vacuum_flag) == (0, None, False)
    assert LowestWeightData(c=Fraction(1), vacuum_flag=True).vacuum_flag
    for kwargs in ({"h": Fraction(1)}, {"q": Fraction(1)}):
        with pytest.raises(ValueError, match=r"vacuum_flag requires h = 0 \(and q = 0\)"):
            LowestWeightData(Fraction(1), vacuum_flag=True, **kwargs)


def test_gram_matrix_and_psd_result_records():
    one = GaussianRational(1)
    make = lambda: GramMatrix(half(2), [(("L", half(-2)),)], [[one]])
    a = make()
    assert a == make() and a != GramMatrix(half(2), [(("L", half(-2)),)], [[GaussianRational(2)]])
    with pytest.raises(TypeError):
        hash(a)
    assert a.size == 1 and a.is_hermitian()
    result = PsdResult(True, [Fraction(1)])
    assert result.witness is None and result == PsdResult(True, [Fraction(1)], None)
    assert result != PsdResult(False, [Fraction(1)], [one])
    with pytest.raises(TypeError):
        hash(result)


# -- verify --------------------------------------------------------------------------


def test_residual_entry_record():
    make = lambda: ResidualEntry("[L,L]", (half(2), half(-2)), Fraction(0))
    _assert_mutable_value_record(make, ResidualEntry("[L,L]", (half(2), half(-2)), Fraction(1)),
                                 "detail", "|0>")
    assert make().detail is None and make().ok and not ResidualEntry("x", (), Fraction(1, 3)).ok


def test_check_report_record():
    make = lambda: CheckReport("relations", {"family": "ns"})
    _assert_mutable_value_record(make, CheckReport("relations", {"family": "n2"}), "expect_failure", True)
    a, b = make(), make()
    assert a.entries == [] and a.entries is not b.entries and not a.expect_failure
    a.entries.append(ResidualEntry("x", (), Fraction(1, 3)))
    assert a != b and not a.passed and a.worst() == Fraction(1, 3) and b.passed
