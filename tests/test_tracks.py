import random

import pytest

from evintel.ds import ValidationError
from evintel.oracle import OracleSizeError, all_paths, combine_oracle, random_track_graph
from evintel.tracks import (
    DEFAULT_Q_CAP,
    TrackGraph,
    TrackVertex,
    best_path_dp,
    dot_export,
    kinematic_edge_mass,
    kinematic_graph,
    NORM_VERTEX_LIMIT,
    normalize,
    path_plausibility_unnorm,
    path_support,
    track_conflict,
)


def graph3():
    return TrackGraph((0.9, 0.5, 0.8), {(1, 2): 0.2, (1, 3): 0.9, (2, 3): 0.1})


class TestConstruction:
    def test_incomplete_edges_rejected(self):
        with pytest.raises(ValidationError, match="every pair"):
            TrackGraph((0.1, 0.2, 0.3), {(1, 2): 0.0, (2, 3): 0.0})

    @pytest.mark.parametrize(
        "edges",
        [
            {(1, 2): 0.0, (1, 3): 0.0, (2, 1): 0.0},  # reversed
            {(0, 1): 0.0, (1, 3): 0.0, (2, 3): 0.0},  # below the ranks
            {(1, 2): 0.0, (1, 4): 0.0, (2, 3): 0.0},  # above them
            {(1, 2): 0.0, (1, 3): 0.0, (1, 2, 3): 0.0},  # not a pair
            {(1, 2): 0.0, (1, 3): 0.0, 23: 0.0},  # not a tuple
            {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0, (3, 4): 0.0},  # one pair too many
        ],
    )
    def test_edge_keys_must_be_every_pair_once(self, edges):
        with pytest.raises(ValidationError, match=r"^edge masses must cover exactly every pair i < j$"):
            TrackGraph((0.1, 0.2, 0.3), edges)

    def test_vertex_mass_range(self):
        with pytest.raises(ValidationError):
            TrackGraph((1.0,), {})

    def test_edge_mass_range(self):
        with pytest.raises(ValidationError):
            TrackGraph((0.1, 0.2), {(1, 2): 1.0})

    def test_all_paths(self):
        assert all_paths(TrackGraph((0.0, 0.0), {(1, 2): 0.0})) == [(1,), (2,), (1, 2)]


class TestKinematicEdgeMass:
    def v(self, rank, t_h, x_km, y_km=0.0):
        return TrackVertex(rank, t_h * 3600.0, (x_km, y_km))

    def test_feasible_speed(self):
        assert kinematic_edge_mass(self.v(1, 0.0, 0.0), self.v(2, 1.0, 10.0), 25.0) == 0.0

    def test_worked_example(self):
        q = kinematic_edge_mass(self.v(1, 0.0, 0.0), self.v(2, 2.0, 100.0), 25.0)
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_zero_time_difference(self):
        q = kinematic_edge_mass(self.v(1, 1.0, 0.0), self.v(2, 1.0, 50.0), 25.0)
        assert q == DEFAULT_Q_CAP

    def test_cap_applies(self):
        q = kinematic_edge_mass(self.v(1, 0.0, 0.0), self.v(2, 0.001, 1000.0), 1.0, q_cap=0.9)
        assert q == 0.9

    def test_requires_metadata(self):
        with pytest.raises(ValidationError, match="time and position"):
            kinematic_edge_mass(TrackVertex(1), self.v(2, 1.0, 1.0), 25.0)

    @pytest.mark.parametrize("v_max", [0.0, -1.0, float("nan")])
    def test_speed_limit_must_be_positive(self, v_max):
        with pytest.raises(ValidationError, match="v_max must be positive"):
            kinematic_edge_mass(self.v(1, 0.0, 0.0), self.v(2, 1.0, 1.0), v_max)

    def test_infinite_speed_limit_doubts_nothing(self):
        assert kinematic_edge_mass(self.v(1, 0.0, 0.0), self.v(2, 0.001, 1000.0), float("inf")) == 0.0

    def test_rank_order(self):
        with pytest.raises(ValidationError, match="lower to higher"):
            kinematic_edge_mass(self.v(2, 0.0, 0.0), self.v(1, 1.0, 1.0), 25.0)

    def test_kinematic_graph_is_complete(self):
        vs = [self.v(i, float(i), 5.0 * i) for i in range(1, 5)]
        g = kinematic_graph(vs, [0.1, 0.2, 0.3, 0.4], 25.0)
        assert set(g.q) == {(i, j) for i in range(1, 5) for j in range(i + 1, 5)}
        assert all(q == 0.0 for q in g.q.values())  # 5 km/h required, limit 25


class TestPathPlausibility:
    def test_full_path(self):
        assert path_plausibility_unnorm(graph3(), (1, 2, 3)) == pytest.approx(0.72, abs=1e-12)

    def test_skip_path(self):
        assert path_plausibility_unnorm(graph3(), (1, 3)) == pytest.approx(0.05, abs=1e-12)

    def test_no_doubt_graph(self):
        g = TrackGraph((0.0, 0.0, 0.0), {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
        paths = all_paths(g)
        conflict, values = normalize(g, paths)
        assert conflict == 0.0
        for path, (norm, _) in zip(paths, values):
            assert path_plausibility_unnorm(g, path) == 1.0
            assert norm == 1.0

    def test_invalid_paths(self):
        g = graph3()
        for bad in ((), (3, 1), (1, 1), (0,), (4,)):
            with pytest.raises(ValidationError):
                path_plausibility_unnorm(g, bad)
            with pytest.raises(ValidationError):
                normalize(g, [(1, 2), bad])

    def test_normalization_past_oracle_limit(self):
        g = random_track_graph(7, random.Random(0))
        unnorm = path_plausibility_unnorm(g, (1, 2))
        conflict, ((norm, support),) = normalize(g, [(1, 2)])
        assert conflict == track_conflict(g)[0]
        assert norm == pytest.approx(unnorm / (1.0 - conflict), rel=1e-9)
        assert support == path_support(g, (1, 2))
        assert 0.0 < unnorm < norm <= 1.0

    def test_normalization_unavailable_beyond_dp_limit(self):
        g = random_track_graph(NORM_VERTEX_LIMIT + 1, random.Random(0))
        assert path_plausibility_unnorm(g, (1, 2)) > 0.0
        assert normalize(g, [(1, 2), (2, 3)]) == (None, (None, None))


class TestCombineOracle:
    def test_worked_two_vertex_example(self):
        g = TrackGraph((0.6, 0.5), {(1, 2): 0.3})
        analysis = combine_oracle(g)
        assert analysis.conflict == pytest.approx(0.09, abs=1e-12)
        assert analysis.support[(1, 2)] == pytest.approx(0.21 / 0.91, abs=1e-6)
        assert analysis.plausibility[(1, 2)] == pytest.approx(0.70 / 0.91, abs=1e-6)
        assert analysis.plausibility_unnorm[(1,)] == pytest.approx(0.5, abs=1e-12)

    def test_all_zero_masses(self):
        g = TrackGraph((0.0, 0.0), {(1, 2): 0.0})
        analysis = combine_oracle(g)
        assert analysis.conflict == 0.0
        for path in all_paths(g):
            assert analysis.plausibility[path] == 1.0
            assert analysis.support[path] == 0.0

    def test_size_refusal_names_limit(self):
        g = random_track_graph(7, random.Random(1))
        with pytest.raises(OracleSizeError, match="at most 6"):
            combine_oracle(g)

    def test_support_bounded_by_plausibility(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_track_graph(rng.randint(2, 4), rng)
            analysis = combine_oracle(g)
            assert 0.0 <= analysis.conflict < 1.0
            for path in all_paths(g):
                assert analysis.support[path] <= analysis.plausibility[path] + 1e-12


class TestSweepDps:
    def test_match_oracle(self):
        # exact-zero masses (zero_share) exercise the dropped zero-weight states
        rng = random.Random(21)
        graphs = 0
        for n in range(1, 7):
            for t in range(6 if n == 6 else 48):
                g = random_track_graph(n, rng, zero_share=(0.0, 0.3, 0.6)[t % 3] if n < 6 else 0.5)
                analysis = combine_oracle(g)
                conflict, norm = track_conflict(g)
                assert abs(conflict - analysis.conflict) <= 1e-12
                assert abs(norm - (1.0 - analysis.conflict)) <= 1e-12
                for path in all_paths(g):
                    assert abs(path_support(g, path, norm) - analysis.support[path]) <= 1e-12
                graphs += 1
        assert graphs >= 200

    def test_fully_doubted_six_vertices(self):
        g = random_track_graph(6, random.Random(22))
        analysis = combine_oracle(g)
        conflict, norm = track_conflict(g)
        assert abs(conflict - analysis.conflict) <= 1e-12
        for path in ((1, 2, 3, 4, 5, 6), (2, 5), (6,)):
            assert abs(path_support(g, path) - analysis.support[path]) <= 1e-12

    def test_worked_two_vertex_example(self):
        g = TrackGraph((0.6, 0.5), {(1, 2): 0.3})
        conflict, norm = track_conflict(g)
        assert conflict == pytest.approx(0.09, abs=1e-15)
        assert norm == pytest.approx(0.91, abs=1e-15)
        assert path_support(g, (1, 2)) == pytest.approx(0.21 / 0.91, abs=1e-15)
        # (1) alone: vertex 2 not required, vertex 1 required (kills (2)), edge doubted
        assert path_support(g, (1,)) == pytest.approx(0.5 * 0.6 * 0.3 / 0.91, abs=1e-15)

    def test_normalizer_survives_near_total_conflict(self):
        # categorical reports and capped doubt on every edge: 1 - conflict rounds
        # to nothing, the surviving mass summed directly does not
        n = 6
        g = TrackGraph((0.999999,) * n, {(i, j): 0.999 for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        _, norm = track_conflict(g)
        assert norm > 0.0
        full = tuple(range(1, n + 1))
        unnorm = path_plausibility_unnorm(g, full)
        support = path_support(g, full, norm)
        assert 0.99 < support <= unnorm / norm <= 1.0

    def test_oracle_matches_near_total_conflict(self):
        # the oracle normalizes by the surviving mass too; by 1 - conflict it
        # reported support -0.0078 for the full track here
        n = 6
        g = TrackGraph((0.999999,) * n, {(i, j): 0.999 for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        analysis = combine_oracle(g)
        _, norm = track_conflict(g)
        for path in all_paths(g):
            assert abs(path_support(g, path, norm) - analysis.support[path]) <= 1e-12
            assert abs(path_plausibility_unnorm(g, path) / norm - analysis.plausibility[path]) <= 1e-12
        assert analysis.support[tuple(range(1, n + 1))] > 0.99

    def test_undoubted_graph_stays_cheap(self):
        g = TrackGraph((0.5,) * 40, {(i, j): 0.0 for i in range(1, 41) for j in range(i + 1, 41)})
        conflict, norm = track_conflict(g)
        assert conflict == 0.0 and norm == pytest.approx(1.0, abs=1e-12)
        # a track that skips a vertex dies whenever that vertex is required
        assert path_support(g, (1, 3), norm) == pytest.approx(0.5**38 * 0.5**2 * 0.5, rel=1e-9)

    def test_invalid_path(self):
        with pytest.raises(ValidationError):
            path_support(graph3(), (2, 1))


class TestBestPathDp:
    def test_worked_example_best(self):
        paths = best_path_dp(graph3(), top_k=1)
        assert paths == [((1, 2, 3), pytest.approx(0.72, abs=1e-12))]

    def test_tie_break_prefers_lexicographic(self):
        g = TrackGraph((0.0, 0.0, 0.0), {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
        paths = best_path_dp(g, top_k=3)
        assert [p for p, _ in paths] == [(1,), (1, 2), (1, 2, 3)]
        assert all(v == 1.0 for _, v in paths)

    def test_strong_transition_doubt(self):
        # with the spec's detour example the exhaustive argmax is the bare
        # middle vertex: skipping both supported endpoints costs 0.5 * 0.5,
        # still above every transition-laden alternative
        g = TrackGraph((0.5, 0.9, 0.5), {(1, 2): 0.99, (1, 3): 0.0, (2, 3): 0.99})
        ranked = best_path_dp(g, top_k=7)
        values = {p: v for p, v in ranked}
        assert values[(1, 3)] == pytest.approx(0.1, abs=1e-12)
        assert values[(1, 2, 3)] == pytest.approx(0.0001, abs=1e-12)
        assert ranked[0][0] == (2,)
        assert ranked[0][1] == pytest.approx(0.25, abs=1e-12)
        assert values[(1, 3)] > values[(1, 2, 3)]

    def test_topk_matches_exhaustive(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_track_graph(rng.randint(2, 5), rng)
            k = rng.randint(1, 4)
            got = best_path_dp(g, top_k=k)
            want = sorted(
                ((p, path_plausibility_unnorm(g, p)) for p in all_paths(g)),
                key=lambda pv: (-pv[1], pv[0]),
            )[:k]
            assert [p for p, _ in got] == [p for p, _ in want]
            for (_, gv), (_, wv) in zip(got, want):
                assert gv == pytest.approx(wv, abs=1e-12)

    def test_normalization_preserves_ranking(self):
        rng = random.Random(14)
        for _ in range(10):
            g = random_track_graph(rng.randint(2, 5), rng)
            analysis = combine_oracle(g)
            by_unnorm = sorted(all_paths(g), key=lambda p: -analysis.plausibility_unnorm[p])
            by_norm = sorted(all_paths(g), key=lambda p: -analysis.plausibility[p])
            assert by_unnorm == by_norm

    def test_large_graph_fast_path(self):
        g = random_track_graph(60, random.Random(3))
        (path, value), *_ = best_path_dp(g, top_k=1)
        assert value > 0.0
        assert all(a < b for a, b in zip(path, path[1:]))


class TestDotExport:
    def test_labels_with_six_decimals(self):
        g = TrackGraph((0.6, 0.5), {(1, 2): 0.3})
        dot = dot_export(g)
        assert "digraph" in dot
        assert 'v1 [label="1 p=0.600000"];' in dot
        assert 'v1 -> v2 [label="0.300000"];' in dot

    def test_includes_time_metadata(self):
        vs = (TrackVertex(1, 0.0, (0.0, 0.0)), TrackVertex(2, 3600.0, (1.0, 0.0)))
        g = kinematic_graph(vs, [0.2, 0.3], 25.0)
        assert "t=0s" in dot_export(g)
