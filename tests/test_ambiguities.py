import pytest

from monomial_hh import ambiguities
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cli import _pieces
from monomial_hh.errors import DegreeUnderflow

from helpers import Path, amb_path, basis_paths, by_path, named_algebra, path, vertex, word_path, written
from reference_scans import amb_prefix, amb_suffix, concat, divisor_occurrences


def words(t, n):
    return {amb_path(t, a).word() for a in t.degree(n)}


def test_low_degrees_every_fixture(cone, square, triangular_a6, truncated_cycle, a2):
    for alg in (cone, square, triangular_a6, truncated_cycle, a2):
        t = AmbiguityTable(alg)
        q = alg.quiver
        assert {amb_path(t, a) for a in t.degree(-1)} == {Path(q, v, ()) for v in range(q.n_vertices)}
        assert {amb_path(t, a) for a in t.degree(0)} == {path(q, n) for n in q.arrow_names}
        assert {amb_path(t, a) for a in t.degree(1)} == {word_path(q, r) for r in alg.relations}


def test_degree_underflow(cone):
    with pytest.raises(DegreeUnderflow):
        AmbiguityTable(cone).degree(-2)


def test_cone_gamma2_and_gamma3(cone):
    t = AmbiguityTable(cone)
    assert words(t, 2) == {
        "betazetagamma",
        "betazetaalphazeta",
        "alphazetaalphazeta",
        "zetaalphazetagamma",
        "zetaalphazetaalpha",
    }
    assert words(t, 3) == {
        "betazetaalphazetagamma",
        "betazetaalphazetaalpha",
        "alphazetaalphazetagamma",
        "alphazetaalphazetaalphazeta",
        "zetaalphazetaalphazetaalpha",
    }


def test_cone_left_pieces_examples(cone):
    t = AmbiguityTable(cone)
    q = cone.quiver
    zaza = written(q, "zeta alpha zeta alpha")
    amb = by_path(t, 2, zaza)
    assert amb is not None
    assert _pieces(q, amb.left_pieces) == "zeta|alphazeta|alpha"
    azazazg = written(q, "alpha zeta alpha zeta alpha zeta gamma")
    amb4 = by_path(t, 4, azazazg)
    assert amb4 is not None
    assert _pieces(q, amb4.left_pieces) == "alpha|zetaalpha|zeta|alphazeta|gamma"


def test_square_decompositions(square):
    t = AmbiguityTable(square)
    q = square.quiver
    assert words(t, 2) == {"gammabetaalphadeltagamma", "alphadeltagammabetaalpha"}
    adgba = by_path(t, 2, written(q, "alpha delta gamma beta alpha"))
    assert _pieces(q, adgba.left_pieces) == "alpha|deltagamma|betaalpha"

    assert words(t, 3) == {
        "gammabetaalphadeltagammabetaalpha",
        "alphadeltagammabetaalphadeltagamma",
    }
    p = by_path(t, 3, written(q, "gamma beta alpha delta gamma beta alpha"))
    assert _pieces(q, p.left_pieces) == "gamma|betaalpha|deltagamma|betaalpha"
    assert _pieces(q, p.right_pieces) == "gammabeta|alphadelta|gammabeta|alpha"

    # truncations: both degree-1 truncations are the same relation here,
    # and the split remainder is the single arrow delta
    assert amb_path(t, amb_suffix(p, 1)).word() == "gammabetaalpha"
    assert amb_path(t, amb_prefix(p, 1)).word() == "gammabetaalpha"
    pre, b, suf = t.split(p, 1, 1)
    assert (pre, suf) == (amb_prefix(p, 1), amb_suffix(p, 1))
    b = basis_paths(square)[b]
    assert b.word() == "delta"
    assert len(b) == 1


def test_split_reassembles(square, cone):
    for alg in (square, cone):
        t = AmbiguityTable(alg)
        basis = basis_paths(alg)
        for n in range(0, 4):
            for amb in t.degree(n):
                for i in range(-1, n + 1):
                    j = n - 1 - i
                    if j < -1 or j > n:
                        continue
                    pre, b, suf = t.split(amb, i, j)
                    assert concat(amb_path(t, pre), basis[b], amb_path(t, suf)) == amb_path(t, amb)


def test_truncated_cycle_counts(truncated_cycle):
    t = AmbiguityTable(truncated_cycle)
    for ell in (1, 2, 3):
        odd = t.degree(2 * ell - 1)
        even = t.degree(2 * ell)
        assert len(odd) == 3
        assert len(even) == 3
        assert {len(a.arrows) for a in odd} == {2 * ell}
        assert {len(a.arrows) for a in even} == {2 * ell + 1}


def test_triangular_a6_table(triangular_a6):
    t = AmbiguityTable(triangular_a6)
    assert words(t, 2) == {"a3a2a1", "a4a3a2", "a5a4a3"}
    assert words(t, 3) == {"a4a3a2a1", "a5a4a3a2"}
    assert words(t, 4) == {"a5a4a3a2a1"}
    assert t.degree(5) == ()
    assert t.degree(6) == ()


def plant_lost_candidate(monkeypatch, side):
    """_left_candidates or _right_candidates loses its first candidate from now on."""
    name = "_%s_candidates" % side
    honest = getattr(ambiguities, name)
    monkeypatch.setattr(ambiguities, name, lambda rels, end: honest(rels, end)[1:])


def test_right_generation_agrees(cone, square, truncated_cycle, monkeypatch):
    # the left and right recursions run independently and must agree; a
    # right generation that loses a candidate trips the check in _extend
    for alg in (cone, square, truncated_cycle):
        AmbiguityTable(alg).degree(4)
    plant_lost_candidate(monkeypatch, "right")
    for alg in (cone, square, truncated_cycle):
        with pytest.raises(AssertionError, match="left/right ambiguity generation disagree"):
            AmbiguityTable(alg).degree(4)


def test_left_generation_agrees(cone, square, truncated_cycle, monkeypatch):
    # the mirror fault: a right word with no left twin leaves the counts unequal
    plant_lost_candidate(monkeypatch, "left")
    for alg in (cone, square, truncated_cycle):
        with pytest.raises(AssertionError, match="left/right ambiguity generation disagree"):
            AmbiguityTable(alg).degree(4)


def test_candidates_once_per_piece(monkeypatch):
    # the candidates depend only on the parent's end piece: each _extend asks
    # for a piece's at most once, however many parents share it
    calls = {"left": [], "right": []}
    for side in calls:
        honest = getattr(ambiguities, "_%s_candidates" % side)

        def counted(rels, piece, honest=honest, seen=calls[side]):
            seen.append(piece)
            return honest(rels, piece)

        monkeypatch.setattr(ambiguities, "_%s_candidates" % side, counted)
    t = AmbiguityTable(named_algebra("rsz3"))
    for n in range(1, 6):
        for seen in calls.values():
            seen.clear()
        assert len(t.degree(n)) == 3 ** (n + 1)
        parents = t.degree(n - 1)
        for seen, pieces in (
            (calls["left"], {a.left_pieces[0] for a in parents}),
            (calls["right"], {a.right_pieces[-1] for a in parents}),
        ):
            assert len(seen) == len(set(seen)) and set(seen) <= pieces


@pytest.mark.parametrize(
    "name, top, asked",
    [
        ("cone", 24, 12),  # 192 when each degree found its own
        ("truncated_cycle", 24, 6),  # 144 then
        ("rsz2", 8, 4),  # 32 then
    ],
    ids=["cone", "truncated_cycle", "rsz2"],
)
def test_candidates_once_per_table(name, top, asked, monkeypatch):
    # the memo lives on the table: one call per (side, end piece) over all degrees
    calls = []
    for side in ("left", "right"):
        honest = getattr(ambiguities, "_%s_candidates" % side)

        def counted(rels, piece, honest=honest, side=side):
            calls.append((side, piece))
            return honest(rels, piece)

        monkeypatch.setattr(ambiguities, "_%s_candidates" % side, counted)
    t = AmbiguityTable(named_algebra(name))
    t.degree(top)
    assert len(calls) == len(set(calls)) == asked
    assert len(t.memo("ambiguities.AmbiguityTable._extensions")) == asked


def test_sub_of_arrow_endpoints_source_first(cone):
    t = AmbiguityTable(cone)
    alpha = by_path(t, 0, path(cone.quiver, "alpha"))
    subs = t.sub(alpha)
    assert len(subs) == 2
    (q0, k0), (q1, k1) = subs
    assert amb_path(t, q0) == vertex(cone.quiver, "1") and k0 == 0
    assert amb_path(t, q1) == vertex(cone.quiver, "2") and k1 == 1


def test_sub_ordering_and_overlap(square):
    t = AmbiguityTable(square)
    p = by_path(t, 3, written(square.quiver, "gamma beta alpha delta gamma beta alpha"))
    subs = t.sub(p)
    positions = [k for _, k in subs]
    assert positions == sorted(positions)
    assert len(positions) == len(set(positions))
    # consecutive members overlap: suffix-truncation of one equals
    # prefix-truncation of the next
    for (q1, _), (q2, _) in zip(subs, subs[1:]):
        assert amb_path(t, amb_suffix(q1, 1)) == amb_path(t, amb_prefix(q2, 1))


def test_sub_even_is_the_two_truncations(cone, square):
    for alg in (cone, square):
        t = AmbiguityTable(alg)
        for n in (0, 2):
            for amb in t.degree(n):
                subs = t.sub(amb)
                assert len(subs) == 2
                (qa, ka), (qb, kb) = subs
                assert amb_path(t, qa) == amb_path(t, amb_prefix(amb, n - 1)) and ka == 0
                assert amb_path(t, qb) == amb_path(t, amb_suffix(amb, n - 1))
                assert kb == len(amb.arrows) - len(qb.arrows)


def test_no_proper_divisor_same_degree(cone, square):
    for alg in (cone, square):
        t = AmbiguityTable(alg)
        for n in range(0, 4):
            ambs = t.degree(n)
            for a in ambs:
                for b in ambs:
                    if a is b:
                        continue
                    assert divisor_occurrences(amb_path(t, b), amb_path(t, a)) == []


def test_odd_suffix_containment_lemma(cone, square):
    # an odd-degree ambiguity sitting flush with the traversal-final end of
    # a piece run u_l..u_m must be exactly the pieces u_l..u_{l+n}
    for alg in (cone, square):
        t = AmbiguityTable(alg)
        for m in range(0, 5):
            for p in t.degree(m):
                pieces = p.left_pieces  # (u_m, ..., u_0)
                for start in range(len(pieces)):
                    # run u_l..u_m where l = m - start ... 0-indexed from the
                    # traversal-initial side: pieces[0:start+1] is u_m..u_{m-start}
                    run = pieces[: start + 1]
                    run_arrows = sum(run, ())
                    for n in range(1, m + 1, 2):
                        for q in t.degree(n):
                            la = q.arrows
                            if len(la) > len(run_arrows):
                                continue
                            if run_arrows[len(run_arrows) - len(la) :] != la:
                                continue
                            # q must consist of whole pieces at the final end
                            expect = sum(run[len(run) - (n + 1) :], ())
                            assert la == expect
