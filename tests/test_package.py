import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import ringline
from ringline.oracle import CheckResult, VerificationReport
from ringline.projline import NeighbourGraph, Point, neighbour_graph, point_through
from ringline.ring import Modulus, make_modulus
from ringline.symplectic import PerpSet, perp_set

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    for name in ringline.__all__:
        assert getattr(ringline, name) is not None, name
    with pytest.raises(AttributeError, match="nosuch"):
        ringline.nosuch


def loaded_modules(code):
    """The ringline modules, and dataclasses and inspect if loaded, that a fresh
    interpreter has imported after running code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    report = ("import sys; print(*sorted(n for n in sys.modules if n.startswith('ringline')"
              " or n in ('dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


@pytest.mark.parametrize("code", [
    "import ringline\nringline.make_modulus(6)",
    "from ringline import cli\ncli.main(['factor', '30'])",
], ids=["library", "cli-factor"])
def test_light_requests_load_only_the_layers_they_use(code):
    loaded = loaded_modules(code)
    assert "ringline.ring" in loaded
    assert "ringline.oracle" not in loaded
    assert "ringline.pauli" not in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def sample(cls):
    """One instance of each of the library's six value classes."""
    m = make_modulus(6)
    check = CheckResult("theorem1", "scope", "fail", {"claim": "x", "vector": [2, 0]}, 0.25)
    return {
        Modulus: m,
        Point: point_through((1, 3), m),
        PerpSet: perp_set((2, 0), m),
        NeighbourGraph: neighbour_graph(m),
        CheckResult: check,
        VerificationReport: VerificationReport(6, (check,)),
    }[cls]


RECORDS = [Modulus, Point, PerpSet, NeighbourGraph, CheckResult, VerificationReport]
by_name = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def fields(record):
    return [getattr(record, name) for name in type(record).__slots__]


@by_name
def test_records_reject_setting_and_deleting_fields(cls):
    record = sample(cls)
    before = fields(record)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields(record) == before


@by_name
def test_records_survive_pickle_and_deepcopy(cls):
    record = sample(cls)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record
        assert fields(clone) == fields(record)


@by_name
def test_records_are_built_from_exactly_their_fields_by_position(cls):
    values = fields(sample(cls))
    assert cls(*values) == sample(cls)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)


@by_name
def test_records_never_equal_an_instance_of_another_class(cls):
    record = sample(cls)

    # a subclass holding the same field values is still another class
    class Twin(cls):
        pass

    twin = Twin(*fields(record))
    assert twin != record and record != twin
    for other in RECORDS:
        if other is not cls:
            assert record != sample(other)


def test_records_repr_names_every_field():
    assert repr(make_modulus(6)) == (
        "Modulus(d=6, factors=((2, 1), (3, 1)), primes=(2, 3), square_free=True, "
        "idempotents=(3, 4))"
    )
    assert repr(Point((1, 0), frozenset())) == "Point(generator=(1, 0), members=frozenset())"


def test_points_are_equal_iff_their_generators_are():
    members = point_through((1, 3), make_modulus(6)).members
    assert Point((1, 3), members) == Point((1, 3), frozenset())
    assert hash(Point((1, 3), members)) == hash(Point((1, 3), frozenset()))
    assert Point((1, 3), members) != Point((1, 0), members)


def test_moduli_are_equal_iff_their_d_is():
    m = make_modulus(6)
    assert m == Modulus(6, (), (), False, None)
    assert m != make_modulus(10)
    assert hash(m) == hash(m.d) == hash(6)
