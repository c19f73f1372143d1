"""The immutable records are `typing.NamedTuple`s: equal fields give equal
objects with equal hashes, no attribute can be assigned, and each prints as
`Name(field=value, ...)`. `Trajectory` and `GeometricDerivation`, plain
classes that compare by their fields, print alike."""
import pytest

from oddgon.derivation import Arrow, TransitionDiagram
from oddgon.flow import GeometricDerivation, NormalizedDirection, Trajectory
from oddgon.geometry import Hit, Mat2, Segment
from oddgon.shear import Cylinder, GuidePoint, ReassemblyReport

# (a function that builds one record, its repr); each record is built twice
RECORDS = [
    (lambda: Mat2(1.0, 2.0, 0.0, 1.0), "Mat2(a=1.0, b=2.0, c=0.0, d=1.0)"),
    (lambda: Segment((0.0, 0.0), (1.0, 0.0)), "Segment(p0=(0.0, 0.0), p1=(1.0, 0.0))"),
    (lambda: Hit(0.5, 0.25, (0.5, 0.0)), "Hit(t=0.5, u=0.25, point=(0.5, 0.0))"),
    (
        lambda: NormalizedDirection(0.25, 3, {"A": "C", "C": "A"}),
        "NormalizedDirection(theta=0.25, steps=3, letter_map={'A': 'C', 'C': 'A'})",
    ),
    (lambda: Arrow("B", "E", "u1"), "Arrow(source='B', target='E', label='u1')"),
    (lambda: Arrow("A", "B"), "Arrow(source='A', target='B', label=None)"),
    (
        lambda: TransitionDiagram("arrows", ("A", "B"), (Arrow("A", "B"),)),
        "TransitionDiagram(stage='arrows', nodes=('A', 'B'), arrows=(Arrow(source='A', target='B', label=None),))",
    ),
    (
        lambda: Cylinder(1, 3.0, 0.5, 6.0, (0.0, 0.5)),
        "Cylinder(index=1, width=3.0, height=0.5, modulus=6.0, y_interval=(0.0, 0.5))",
    ),
    (lambda: GuidePoint("upper", "left", 1, 0.5, 0.75), "GuidePoint(polygon='upper', side='left', level=1, x=0.5, y=0.75)"),
    (
        lambda: ReassemblyReport(1e-12, True, ("upper", "left", 1), True),
        "ReassemblyReport(max_residual=1e-12, passed=True, worst=('upper', 'left', 1), y_preserved=True)",
    ),
]


@pytest.mark.parametrize("build, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_a_record_compares_by_fields_is_immutable_and_keeps_its_repr(build, text):
    record, twin = build(), build()
    assert isinstance(record, tuple) and record == twin and record is not twin
    if isinstance(record, NormalizedDirection):  # its letter_map is a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, text[text.index("(") + 1 : text.index("=")], None)  # its first field
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text


def test_a_segment_is_a_set_member_and_a_dict_key_by_its_ends():
    a, b = Segment((0.0, 0.0), (1.0, 0.0)), Segment((0.0, 0.0), (1.0, 0.0))
    assert {a, b} == {a} and {a: "S1"}[b] == "S1"
    assert Segment((0.0, 0.0), (0.0, 1.0)) not in {a}


def test_cylinder_index_is_the_field():
    # the field shadows tuple.index, which nothing calls on a Cylinder
    assert Cylinder(2, 3.0, 0.5, 6.0, (0.5, 1.0)).index == 2


def test_a_trajectory_and_a_derivation_keep_their_repr():
    # both compare by their fields, so an assertion on them prints them
    traj = Trajectory("upper", (0.5, 0.0), 0.25, "lower", [1, 3], [0.5, 0.25], [0.0, 1.0], 1, False, 0.5)
    traj.crossings  # the view is neither compared nor printed
    assert repr(traj) == (
        "Trajectory(start_polygon='upper', start_point=(0.5, 0.0), theta=0.25, first_polygon='lower',"
        " indices=[1, 3], xs=[0.5, 0.25], ys=[0.0, 1.0], start_edge=1, periodic=False, start_param=0.5)"
    )
    derived = GeometricDerivation("BC", True, 0.25, 3, [2, 5], [(), ()], [None] * 6)
    assert repr(derived) == "GeometricDerivation(letters='BC', cyclic=True, normalized_theta=0.25, rotation_steps=3)"
