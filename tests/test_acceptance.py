"""End-to-end acceptance suite.

Each test exercises one library guarantee against an independent oracle
or golden data, enforces its runtime budget, and prints a single
PASS/FAIL line (written past pytest's capture so the summary is always
visible on the console).
"""

import json
import pathlib
import random
import time

import pytest

from logtoric.base_change import saturated_base_change, verify_base_change
from logtoric.cli import main as cli_main
from logtoric.cone import cone_from_generators, dual_cone
from logtoric.lattice import LatticeMap, dot
from logtoric.log_morphism import (
    MonoidChart,
    identity_chart,
    is_log_etale,
    is_log_smooth,
)
from logtoric.monoid import (
    NatTupleSet,
    affine_monoid,
    hilbert_basis,
    minimal_elements,
    monoid_contains,
)
from logtoric.oracle import (
    Box,
    brute_hilbert_basis,
    brute_ideal_membership,
    brute_minimal_tuples,
    enumerate_cone_points,
    frac_kernel_is_zero,
)
from logtoric.serialize import dumps
from logtoric.toric_chart import (
    boundary_ideal_generators,
    split_torus_factor,
    toric_chart,
    verify_split_reassembly,
)

from corpus_util import (
    cone_corpus,
    random_monoid_chart,
    random_pointed_cone,
    random_toric_pair,
    random_vector,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

NAT = affine_monoid(1, [(1,)])


@pytest.fixture
def announce(capsys):
    """Prints a line on the real console, past pytest's capture."""

    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


class budget:
    """Times a block, reports the one-line verdict, and fails the test
    if the block raised, asserted, or overran its time budget."""

    def __init__(self, number, name, seconds, report=print):
        self.number = number
        self.name = name
        self.seconds = seconds
        self.report = report

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        ok = exc_type is None and elapsed < self.seconds
        verdict = "PASS" if ok else "FAIL"
        line = (f"ACCEPTANCE {self.number} {self.name}: {verdict} "
                f"({elapsed:.2f}s / budget {self.seconds:g}s)")
        self.report(line)
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(f"runtime budget exceeded: {line}")
        return False


def test_acceptance_1_minimal_elements(announce):
    rng = random.Random(101)
    with budget(1, "minimal-elements", 5, announce):
        for _ in range(500):
            s = rng.randint(1, 6)
            count = rng.randint(1, 200)
            tuples = [tuple(rng.randint(0, 20) for _ in range(s))
                      for _ in range(count)]
            mins = minimal_elements(
                NatTupleSet(s, frozenset(tuples))).sorted()
            assert mins, "minimal set of a nonempty input is nonempty"
            assert set(mins) == brute_minimal_tuples(tuples)
            mset = set(mins)
            for a in mins:
                for b in mins:
                    if a != b:
                        assert not all(x <= y for x, y in zip(a, b))
            for t in tuples:
                assert any(all(x <= y for x, y in zip(m, t)) for m in mset)


def _zonotope_box(cone):
    radius = sum(max(abs(x) for x in r) for r in cone.generators)
    radius = max(radius, 1)
    n = cone.ambient_rank
    return Box(n, (-radius,) * n, (radius,) * n)


def test_acceptance_2_hilbert_basis_oracle(announce):
    corpus = cone_corpus(seed=202, count=100)
    with budget(2, "hilbert-basis-oracle", 60, announce):
        for cone in corpus:
            assert set(hilbert_basis(cone).generators) == \
                brute_hilbert_basis(cone, _zonotope_box(cone))


def test_acceptance_3_dual_involution(announce):
    corpus = cone_corpus(seed=202, count=100)
    with budget(3, "dual-involution", 10, announce):
        for cone in corpus:
            dd = dual_cone(dual_cone(cone))
            assert dd.generators == cone.generators
            assert dd.lineality == cone.lineality


def test_acceptance_4_boundary_ideal(announce):
    rng = random.Random(404)
    with budget(4, "boundary-ideal", 30, announce):
        plane = toric_chart(2, [(1, 0), (0, 1)])
        assert boundary_ideal_generators(plane).generator_exponents == \
            ((1, 1),)
        quadric = toric_chart(2, [(1, 0), (1, 2)])
        assert boundary_ideal_generators(quadric).generator_exponents == \
            ((1, 0),)
        for chart in (plane, quadric):
            ideal = boundary_ideal_generators(chart)
            pts = enumerate_cone_points(chart.dual_monoid.cone,
                                        Box(2, (-12, -12), (12, 12)))
            for m in Box(2, (0, 0), (6, 6)).points():
                if not monoid_contains(chart.dual_monoid, m):
                    continue
                vanishes_on_boundary = all(dot(m, u) >= 1
                                           for u in chart.cone.generators)
                assert brute_ideal_membership(ideal, m, pts) == \
                    vanishes_on_boundary
        for _ in range(30):
            rank = rng.randint(2, 3)
            cone = random_pointed_cone(rng, rank, 2, rank + 1)
            chart = toric_chart(rank, cone.generators)
            gens = boundary_ideal_generators(chart).generator_exponents
            assert gens, "a chart with rays has a nonempty boundary ideal"
            for g in gens:
                assert monoid_contains(chart.dual_monoid, g)
                assert all(dot(g, u) >= 1 for u in chart.cone.generators)
            for a in gens:
                for b in gens:
                    if a != b:
                        diff = tuple(x - y for x, y in zip(a, b))
                        assert not monoid_contains(chart.dual_monoid, diff)


def test_acceptance_5_log_smooth_classifier(announce):
    rng = random.Random(505)
    with budget(5, "log-smooth-classifier", 5, announce):
        for _ in range(200):
            chart = random_monoid_chart(rng)
            basis = chart.source.group_completion.basis_vectors()
            cols = [chart.map.apply(b) for b in basis]
            oracle = frac_kernel_is_zero(cols, chart.target.ambient_rank)
            smooth, cert = is_log_smooth(chart)
            assert smooth == oracle
            if smooth:
                assert cert == []
            else:
                w = cert[0]
                assert chart.map.apply(w) == (0,) * chart.target.ambient_rank
                assert any(w)
            if is_log_etale(chart):
                assert smooth


def test_acceptance_6_base_change_goldens(announce):
    with budget(6, "base-change-goldens", 1, announce):
        two = MonoidChart(NAT, NAT, LatticeMap(1, 1, ((2,),)))
        three = MonoidChart(NAT, NAT, LatticeMap(1, 1, ((3,),)))
        cusp = saturated_base_change(two, three)
        assert cusp.main_monoid.generators == ((1,),)
        assert cusp.torsion_order == 1
        assert cusp.structural_map.map.entries == ((2,),)
        node = saturated_base_change(two, two)
        assert node.main_monoid.generators == ((1,),)
        assert node.torsion_order == 2
        ident = saturated_base_change(identity_chart(NAT),
                                      identity_chart(NAT))
        assert ident.main_monoid.generators == ((1,),)
        assert ident.torsion_order == 1 and ident.fibre_dim == 0
        assert ident.structural_map.map.entries == ((1,),)


def test_acceptance_7_base_change_stability(announce):
    rng = random.Random(707)
    pairs = [random_toric_pair(rng) for _ in range(100)]
    with budget(7, "base-change-stability", 120, announce):
        for theta, phi in pairs:
            result = saturated_base_change(theta, phi)
            report = verify_base_change(result, theta)
            assert report["main_monoid_saturated"]
            assert report["structural_map_log_smooth"]
            assert report["structural_map_dominant"]
            assert report["fibre_dim_matches_rank_difference"]
            assert report["passed"]


def _random_non_full_chart(rng):
    while True:
        rank = rng.randint(2, 4)
        k = rng.randint(0, rank - 1)
        gens = [random_vector(rng, rank, 2) for _ in range(k + 1)]
        try:
            cone = cone_from_generators(rank, gens)
        except Exception:
            continue
        if cone.lineality:
            continue
        span = len(cone.generators)
        if span >= rank:
            continue
        return toric_chart(rank, cone.generators)


def test_acceptance_8_torus_factor_split(announce):
    rng = random.Random(808)
    charts = [_random_non_full_chart(rng) for _ in range(50)]
    with budget(8, "torus-factor-split", 30, announce):
        for chart in charts:
            split = split_torus_factor(chart)
            assert split.torus_rank >= 1
            assert split.n1.rank + split.n2.rank == chart.lattice_rank
            assert verify_split_reassembly(chart, split)


def test_acceptance_9_cli_determinism(announce, capsys, tmp_path):
    fixtures = sorted(FIXTURES.glob("*.json"))
    assert fixtures
    with budget(9, "cli-determinism", 5, announce):
        for fixture in fixtures:
            outputs = []
            for _ in range(2):
                code = cli_main(["run", "-i", str(fixture)])
                captured = capsys.readouterr()
                assert code == 0, captured.err
                outputs.append(captured.out.encode())
            assert outputs[0] == outputs[1]
            doc = json.loads(outputs[0])
            assert dumps(doc).encode() == outputs[0]
            reparsed = json.loads(json.dumps(doc))
            assert reparsed == doc
            source = json.loads(fixture.read_text())
            assert json.loads(json.dumps(source)) == source
