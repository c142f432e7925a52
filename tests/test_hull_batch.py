"""The set-level 2D kernel against the one-query kernel, bit for bit."""

import math
import random
import struct

import numpy as np
import pytest

from carousel import InvalidInstance, circle_in_hull
from carousel import hull, witness
from carousel.hull import circles_in_hulls
from carousel.witness import (
    JK_PAIRS,
    Witness,
    pair_inclusions_rows,
    pair_objects,
    point_decomposition,
    random_corollary_instances,
    random_instances,
    random_points_instances,
    witness_searches_rows,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _arrays(queries):
    targets = [t for t, _ in queries]
    gens = [gs for _, gs in queries]
    return np.array(targets, dtype=float), np.array(gens, dtype=float)


def _assert_matches_scalar(queries):
    """Slack, verdict and witness angle of every query equal circle_in_hull's bitwise."""
    slack, inside, theta = circles_in_hulls(*_arrays(queries))
    for (target, gens), s, ok, th in zip(queries, slack.tolist(), inside.tolist(), theta.tolist()):
        res = circle_in_hull(target, gens)
        assert (_bits(s), ok) == (_bits(res.slack), res.contained), (target, gens)
        if not ok:
            assert _bits(th) == _bits(res.witness_direction), (target, gens)


def _random_circle(rng: random.Random, lo: float = -10.0, hi: float = 10.0) -> tuple:
    r = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 3.0)
    return (rng.uniform(lo, hi), rng.uniform(lo, hi), r)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_matches_scalar_on_random_queries(g):
    rng = random.Random(100 + g)
    queries = [
        (_random_circle(rng), tuple(_random_circle(rng) for _ in range(g)))
        for _ in range(4000)
    ]
    _assert_matches_scalar(queries)


def _degenerate_queries():
    unit = (0, 0, 1)
    # generators whose radii differ by exactly their distance: |x| = 1 on
    # both sides, internally tangent (3-4-5 offsets keep every value exact)
    tangent_in = ((0, 0, 1), (3, 4, 6))
    tangent_out = ((0, 0, 6), (3, 4, 1))
    points = ((0, 0, 0), (4, 0, 0), (0, 4, 0))
    cases = [
        (unit, (unit,)),  # the target itself
        (unit, ((0, 0, 2),)),  # concentric, larger
        ((0, 0, 2), (unit,)),  # concentric, smaller
        (unit, (unit, unit, unit)),  # duplicates of the target
        ((1, 1, 0.5), (unit, unit, (3, 0, 1))),  # duplicate generators
        ((0, 0, 0), ((0, 0, 0),)),  # a point on itself
        ((1, 1, 0), points),  # points only, inside
        ((2, 2, 0), points),  # points only, on the hypotenuse
        ((5, 5, 0), points),  # points only, outside
        ((1, 1, 0.5), points),
        ((0, 0, 0), ((0, 0, 0), (1, 0, 0))),  # point at a segment's end
        ((1, 1, 0), tangent_in),
        ((1, 1, 0), tangent_out),
        ((3, 4, 1), tangent_in),
        ((0, 0, 6), tangent_out),
        ((0, 0, 1), tangent_in + ((3, 4, 6),)),
        ((3, 4, 0), ((0, 0, 0), (6, 8, 0))),  # on a segment
        ((0, 0, 5), ((0, 0, 5), (3, 4, 0))),  # point on the circle
    ]
    # a generator concentric with the target flattens the envelope, so the
    # least slack ties over a range of angles and the first one must win
    cases += [(unit, ((0, 0, r), (d, 0, 0))) for r in (0.25, 0.5) for d in range(2, 10)]
    return cases


def test_matches_scalar_on_degenerate_queries():
    by_size = {}
    for target, gens in _degenerate_queries():
        by_size.setdefault(len(gens), []).append((target, gens))
    for queries in by_size.values():
        _assert_matches_scalar(queries)


def test_matches_scalar_when_translated_tangent_pairs_round():
    # |x| = 1 up to rounding once the pair is moved away from the origin
    rng = random.Random(7)
    queries = []
    for _ in range(500):
        ox, oy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        k = rng.uniform(0.1, 3.0)
        gens = ((ox, oy, k), (ox + 3 * k, oy + 4 * k, 6 * k), (ox, oy, 0))
        queries.append(((ox + rng.uniform(-1, 1), oy + rng.uniform(-1, 1), 0.0),
                        gens))
    _assert_matches_scalar(queries)


def test_any_split_into_blocks_gives_the_same_arrays(monkeypatch):
    rng = random.Random(3)
    queries = [
        (_random_circle(rng), tuple(_random_circle(rng) for _ in range(3)))
        for _ in range(600)
    ]
    targets, gens = _arrays(queries)
    whole = [a.tobytes() for a in circles_in_hulls(targets, gens)]
    cuts = sorted(rng.sample(range(1, 600), 9))
    parts = [circles_in_hulls(targets[a:b], gens[a:b]) for a, b in zip([0] + cuts, cuts + [600])]
    assert [np.concatenate(p).tobytes() for p in zip(*parts)] == whole
    for block in (1, 30, 301):  # one query per block, and ragged last blocks
        monkeypatch.setattr(hull, "_BLOCK", block)
        assert [a.tobytes() for a in circles_in_hulls(targets, gens)] == whole


def test_rejects_empty_generator_sets():
    with pytest.raises(ValueError):
        circles_in_hulls(np.zeros((2, 3)), np.zeros((2, 0, 3)))


@pytest.mark.parametrize("targets, gens", [
    (np.zeros((1, 3)), np.zeros((2, 3, 3))),  # one target for two rows
    (np.zeros(3), np.zeros((1, 3, 3))),  # a target that is not a row
    (np.zeros((2, 4)), np.zeros((2, 3, 3))),
    (np.zeros((2, 3)), np.zeros((2, 3, 4))),
    (np.zeros((2, 3)), np.zeros((2, 3))),
], ids=["short-targets", "flat-target", "wide-targets", "wide-generators", "flat-generators"])
def test_rejects_arrays_of_other_shapes(targets, gens):
    with pytest.raises(ValueError, match=r"^need \(n, 3\) targets and \(n, g, 3\) generators"):
        circles_in_hulls(targets, gens)


# (column, value, message): a coordinate or a radius that no object may hold
_BAD_VALUES = [
    (0, math.nan, "coordinates must be finite"),
    (1, -math.inf, "coordinates must be finite"),
    (2, -1.0, "radii must be finite and >= 0"),
    (2, math.nan, "radii must be finite and >= 0"),
    (2, math.inf, "radii must be finite and >= 0"),
]


@pytest.mark.parametrize("col, value, message", _BAD_VALUES)
@pytest.mark.parametrize("in_gens", [False, True], ids=["target", "generator"])
def test_rejects_objects_that_are_not_finite_or_have_negative_radii(in_gens, col, value, message):
    targets = np.array([[0.0, 0.0, 0.5], [1.0, 1.0, 0.0]])
    gens = np.array([[[0.0, 0.0, 1.0], [3.0, 0.0, 0.0]]] * 2)
    if in_gens:
        gens[1, 1, col] = value
    else:
        targets[1, col] = value
    with pytest.raises(ValueError, match=message):
        circles_in_hulls(targets, gens)
    with pytest.raises(ValueError, match=message):
        circles_in_hulls(targets, gens, subsets=[[True, False], [True, True]])


@pytest.mark.parametrize("col, value, message", [_BAD_VALUES[0], _BAD_VALUES[2]],
                         ids=["nan-coordinate", "negative-radius"])
def test_the_draws_skip_the_check_but_no_public_entry_does(col, value, message):
    # the kernel has no unchecked core, and no draw calls it; the entries
    # that take a caller's arrays keep their value check
    rows = random_instances(range(3))
    rows[1, 3, col] = value  # u0 of the second row
    with pytest.raises(ValueError, match=message):
        circles_in_hulls(rows[:, 3], rows[:, :3])
    with pytest.raises(ValueError, match=message):
        witness.best_witness_slacks_rows(rows)


# -- subset form ----------------------------------------------------------------


def _assert_subsets_match_one_subset_calls(targets, gens, subsets):
    """Each subset's slack, verdict and angle equal a one-subset call on its objects."""
    got = circles_in_hulls(targets, gens, subsets=subsets)
    assert all(a.shape == (len(targets), len(subsets)) for a in got)
    for q, keep in enumerate(np.asarray(subsets, bool)):
        alone = circles_in_hulls(targets, gens[:, keep])
        assert [a[:, q].tobytes() for a in got] == [a.tobytes() for a in alone], keep


def _all_subsets(g: int) -> np.ndarray:
    return np.array([[bool(mask >> i & 1) for i in range(g)] for mask in range(1, 1 << g)])


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_subsets_match_one_subset_calls_on_random_rows(g):
    rng = random.Random(200 + g)
    targets, gens = _arrays([
        (_random_circle(rng), tuple(_random_circle(rng) for _ in range(g)))
        for _ in range(400)
    ])
    for _ in range(4):
        choices = list(_all_subsets(g))
        picked = rng.sample(choices, rng.randint(1, min(6, len(choices))))
        _assert_subsets_match_one_subset_calls(targets, gens, np.array(picked))


def test_subsets_match_one_subset_calls_on_degenerate_rows():
    # a subset's envelope is flat from its first own candidate on, and a
    # third object's antipode, not the subset's own, lies before it
    unit = (0, 0, 1)
    flat = [(unit, ((0, 0, r), (d, 0, 0), (1, -2, 0)))
            for r in (0.25, 0.5) for d in (3, 5, 8)]
    by_size = {}
    for target, gens in _degenerate_queries() + flat:
        by_size.setdefault(len(gens), []).append((target, gens))
    for g, queries in by_size.items():
        _assert_subsets_match_one_subset_calls(*_arrays(queries), _all_subsets(g))


def test_subsets_match_one_subset_calls_on_translated_tangent_pairs():
    rng = random.Random(7)
    queries = []
    for _ in range(500):
        ox, oy = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        k = rng.uniform(0.1, 3.0)
        gens = ((ox, oy, k), (ox + 3 * k, oy + 4 * k, 6 * k), (ox, oy, 0))
        queries.append(((ox + rng.uniform(-1, 1), oy + rng.uniform(-1, 1), 0.0),
                        gens))
    _assert_subsets_match_one_subset_calls(*_arrays(queries), _all_subsets(3))


def test_any_split_into_blocks_gives_the_same_subset_arrays(monkeypatch):
    rng = random.Random(4)
    targets, gens = _arrays([
        (_random_circle(rng), tuple(_random_circle(rng) for _ in range(4)))
        for _ in range(300)
    ])
    subsets = _all_subsets(4)
    whole = [a.tobytes() for a in circles_in_hulls(targets, gens, subsets=subsets)]
    for block in (1, 30, 301):
        monkeypatch.setattr(hull, "_BLOCK", block)
        assert [a.tobytes() for a in circles_in_hulls(targets, gens, subsets=subsets)] == whole


@pytest.mark.parametrize("subsets", [
    [[True, False, True], [False, False, False]],  # an empty subset
    [[True, True]],  # not one flag per object
    [True, True, True],  # not a (q, g) array
])
def test_rejects_malformed_subsets(subsets):
    with pytest.raises(ValueError):
        circles_in_hulls(np.zeros((2, 3)), np.zeros((2, 3, 3)), subsets=subsets)


def _after(x: float) -> float:
    return math.nextafter(x, math.inf)


def test_guards_match_scalar_at_their_boundaries():
    tiny = hull._TINY
    origin = (0, 0, 0)
    # an offset whose hypot is exactly _TINY has no antipode; one ulp longer has one
    short = [(origin, ((tiny, 0, 0),)), (origin, ((0, tiny, 0),))]
    long_ = [(origin, ((_after(tiny), 0, 0),)), (origin, ((0, _after(tiny), 0),))]
    assert [math.hypot(g[0][0], g[0][1]) for _, g in short] == [tiny, tiny]
    # pairs with |dr / rho| exactly 1 cross, tangentially; one ulp above 1 they do not
    tangent = [
        ((0, 0, 2), ((0, 0, 1), (-6, -8, 11), (-1, -4, 1.5))),
        ((0, 0, 2.5), ((3, 0, 0), (3, -5, 5), (0, 0, 0.5),
                             (1, -3, 0))),
        ((0, 0, 2.5), ((3, -5, 5), (3, 0, 0), (0, 0, 0.5),
                             (1, -3, 0))),
    ]
    apart = [(t, (gs[0], (gs[1][0], gs[1][1], _after(gs[1][2])), *gs[2:]))
             for t, gs in tangent[:2]]
    apart.append((tangent[2][0], ((3, -5, _after(5)),) + tangent[2][1][1:]))

    def ratio(target, gens):
        (xi, yi, ri), (xj, yj, rj) = [(g[0] - target[0], g[1] - target[1], g[2] - target[2])
                                      for g in gens[:2]]
        return (rj - ri) / math.hypot(xi - xj, yi - yj)

    assert [ratio(*q) for q in tangent] == [1.0, 1.0, -1.0]
    assert [abs(ratio(*q)) for q in apart] == [_after(1.0)] * 3
    for pair in (short, long_), (tangent, apart):
        for queries in pair:
            by_size = {}
            for target, gens in queries:
                by_size.setdefault(len(gens), []).append((target, gens))
            for group in by_size.values():
                _assert_matches_scalar(group)
        # each boundary decides something: the two sides give different results
        scalar = [[circle_in_hull(t, gs) for t, gs in side] for side in pair]
        assert all((a.slack, a.witness_direction) != (b.slack, b.witness_direction)
                   for a, b in zip(*scalar))


# -- set-level witness search -------------------------------------------------


def _scalar_witness_pairs(row):
    """The one-query-at-a-time search: one circle_in_hull per (j, k) pair."""
    found = []
    for j, k in JK_PAIRS:
        res = circle_in_hull(*pair_objects(row, j, k))
        if res.contained:
            found.append(Witness(j, k, res.slack))
    found.sort(key=lambda w: (-w.slack, w.j, w.k))
    return found


def _key(witnesses):
    return [(w.j, w.k, _bits(w.slack)) for w in witnesses]


@pytest.mark.parametrize("draw, sites", [
    (random_instances, True), (random_corollary_instances, False),
])
def test_decide_matches_per_inclusion_calls(draw, sites):
    rows = draw(range(5000))
    # the bases are read as sites exactly when their radii are all 0
    assert ((rows[:, :3, 2] == 0.0).all(axis=1) == sites).all()
    slack, inside = witness._decide(rows)
    # each inclusion its own one-subset call: the hypotheses u0 and u1 in the
    # hull of the bases, then the (j, k) of JK_PAIRS as pair_objects reads them
    columns = [(rows[:, u], rows[:, :3]) for u in (3, 4)]
    for j, k in JK_PAIRS:
        pairs = [pair_objects(row, j, k) for row in rows.tolist()]
        columns.append((np.array([t for t, _ in pairs]), np.array([g for _, g in pairs])))
    for col, (targets, gens) in enumerate(columns):
        alone = circles_in_hulls(targets, gens)
        assert slack[:, col].tobytes() == alone[0].tobytes()
        assert inside[:, col].tobytes() == alone[1].tobytes()
    best = witness.best_witness_slacks_rows(rows)
    found = witness.witness_searches_rows(rows)
    assert [None if s is None else _bits(s) for s in best] == [
        _bits(ws[0].slack) if ws else None for ws in found
    ]


def test_best_slack_is_none_without_a_witness(monkeypatch):
    rows = random_instances(range(20))
    real = circles_in_hulls

    def no_pair_holds(targets, gens, subsets):
        slack, inside, theta = real(targets, gens, subsets)
        inside[:, 1:] = False  # keep the hypotheses, refute every (j, k)
        return slack, inside, theta

    monkeypatch.setattr(witness, "circles_in_hulls", no_pair_holds)
    assert witness.best_witness_slacks_rows(rows) == [None] * 20
    assert witness.witness_searches_rows(rows) == [[]] * 20


def test_theorem_search_matches_scalar_pairs():
    rows = random_instances(range(3000))
    for row, got in zip(rows.tolist(), witness_searches_rows(rows)):
        assert _key(got) == _key(_scalar_witness_pairs(row))


def test_corollary_search_matches_scalar_pairs():
    rows = random_corollary_instances(range(3000))
    for row, got in zip(rows.tolist(), witness_searches_rows(rows)):
        assert _key(got) == _key(_scalar_witness_pairs(row))


def test_point_inclusions_match_scalar():
    rows = random_points_instances(range(3000))
    pairs = [point_decomposition(row) for row in rows.tolist()]
    slacks, inside = pair_inclusions_rows(rows, pairs)
    for row, (j, k), slack, ok in zip(rows.tolist(), pairs, slacks, inside):
        res = circle_in_hull(*pair_objects(row, j, k))
        assert (_bits(slack), ok) == (_bits(res.slack), res.contained)


def test_first_case_breaking_a_hypothesis_raises():
    def search(*rows):
        return witness_searches_rows(np.array(rows, dtype=float))

    good = random_instances([1])[0].tolist()
    outside = good[:4] + [[100, 100, 1]]
    collinear = [[0, 0, 0], [2, 0, 0], [5, 0, 0], [1, 0, 0.1], [3, 0, 0]]
    with pytest.raises(InvalidInstance, match="u1 is not inside the site hull"):
        search(good, outside, collinear)
    with pytest.raises(InvalidInstance, match="collinear"):
        search(good, collinear, outside)
    # a radius within the decision band keeps the hypotheses on collinear sites
    thin = collinear[:3] + [[1, 0, 1e-9], [3, 0, 0]]
    with pytest.raises(InvalidInstance, match="collinear"):
        search(good, thin)
    cs = [[0, 0, 1], [8, 0, 1], [0, 8, 1], [7, 7, 0.5], [2, 2, 0.5]]
    with pytest.raises(InvalidInstance, match="u0 is not inside the generator hull"):
        search(cs)
    assert witness_searches_rows(np.zeros((0, 5, 3))) == []


def _near_collinear_rows():
    """Site rows whose third site sits 0, 1e-12, 5e-10, 2e-9 or 1e-8 off the others' line.

    The sites are (0, 0), (1, 0) and (0.5, offset), so twice the triangle's
    area is the offset itself, then the same rows moved by (3.7, -1.3), where
    the cross product rounds.  u0 and u1 lie on the base A0A1, both of radius
    0, of 1e-9 (inside the decision band, so only the collinear test refuses
    them) or of 0.1.
    """
    rows = []
    for dx, dy in ((0.0, 0.0), (3.7, -1.3)):
        for off in (0.0, 1e-12, 5e-10, 2e-9, 1e-8):
            for r in (0.0, 1e-9, 0.1):
                rows.append([[dx, dy, 0.0], [1.0 + dx, dy, 0.0], [0.5 + dx, off + dy, 0.0],
                             [0.25 + dx, dy, r], [0.75 + dx, dy, r]])
    return rows


def _outcome(entry, rows):
    """What an entry returns on rows, or the message of the InvalidInstance it raises."""
    try:
        return entry(rows)
    except InvalidInstance as exc:
        return str(exc)


def test_collinear_sites_are_decided_as_check_collinear_decides_them():
    good = random_instances([1])[0].tolist()
    refused = []
    for row in _near_collinear_rows():
        message = _outcome(witness._check_collinear, row)
        refused.append(message is not None)
        found = _outcome(witness_searches_rows, [row])
        best = _outcome(witness.best_witness_slacks_rows, [row])
        one = _outcome(witness.witness_search, row)
        if message is not None:
            assert found == best == one == message
        elif isinstance(found, str):
            assert best == one == found == "u0 is not inside the site hull (slack -0.1)"
        else:
            assert found == [one] and best == [one[0].slack]
        # a bad row in the middle of a block raises its own error
        block = _outcome(witness_searches_rows, [good, good, row, good])
        if isinstance(found, str):
            assert block == found
        else:
            assert block == witness_searches_rows([good, good]) + found + [block[0]]
    # rows of radius 0 are never refused; those of positive radius are while
    # twice the area is within EPS_GEOM, at offsets 0, 1e-12 and 5e-10
    assert refused == ([False, True, True] * 3 + [False] * 6) * 2


@pytest.mark.parametrize("col, value, message", _BAD_VALUES)
def test_rows_entries_reject_what_the_kernel_rejects(col, value, message):
    rows = random_instances(range(3))
    rows[2, 4, col] = value  # u1 of the last row
    with pytest.raises(ValueError, match=message):
        witness_searches_rows(rows)
    with pytest.raises(ValueError, match=message):
        witness.best_witness_slacks_rows(rows)
    points = random_points_instances(range(3))
    pairs = [point_decomposition(row) for row in points.tolist()]
    points[2, 4, col] = value  # b1 of the last row
    with pytest.raises(ValueError, match=message):
        pair_inclusions_rows(points, pairs)


def test_rows_entries_read_nested_lists_as_arrays():
    rows = random_instances(range(4))
    nested = rows.tolist()
    assert witness_searches_rows(nested) == witness_searches_rows(rows)
    assert witness.best_witness_slacks_rows(nested) == witness.best_witness_slacks_rows(rows)
    points = random_points_instances(range(4))
    pairs = [point_decomposition(row) for row in points.tolist()]
    assert pair_inclusions_rows(points.tolist(), pairs) == pair_inclusions_rows(points, pairs)
    assert pair_inclusions_rows(points, np.array(pairs)) == pair_inclusions_rows(points, pairs)


@pytest.mark.parametrize("shape", [(2, 4, 3), (2, 5, 2), (5, 3), (2, 5, 3, 1)])
def test_rows_entries_reject_rows_of_other_shapes(shape):
    rows = np.zeros(shape)
    message = r"^rows must be \(n, 5, 3\)"
    for entry in (witness_searches_rows, witness.best_witness_slacks_rows):
        with pytest.raises(ValueError, match=message):
            entry(rows)
    with pytest.raises(ValueError, match=message):
        pair_inclusions_rows(rows, [(0, 0)] * len(rows))


def test_pair_inclusions_rows_needs_one_checked_pair_per_row():
    rows = random_points_instances(range(2))
    with pytest.raises(ValueError, match=r"^need one \(j, k\) per row: 2 rows, 1 pairs$"):
        pair_inclusions_rows(rows, [(0, 0)])
    with pytest.raises(ValueError, match=r"^need one \(j, k\) per row: 0 rows, 1 pairs$"):
        pair_inclusions_rows(np.zeros((0, 5, 3)), [(0, 0)])
    for bad in ((3, 0), (0, 2), (-1, 0), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError, match=r"^need j in 0\.\.2 and k in 0\.\.1"):
            pair_inclusions_rows(rows, [(0, 0), bad])
