"""Classifier, window inequalities, congruences, and the integrality discrepancy."""

import random
from fractions import Fraction

import pytest

from conftest import congruence_text, oracle_classify, oracle_verdict, window_bounds
from qtheta import (CaseInput, CaseVerdict, InvalidInput, classify, classify_levels,
                    injectivity, is_squarefree, level_classes, nonintegrality_check)

F = Fraction


class TestCaseInput:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            CaseInput(4, 7, 1)
        with pytest.raises(InvalidInput):
            CaseInput(1, 7, 1)
        with pytest.raises(InvalidInput):
            CaseInput(3, 2, 1)
        with pytest.raises(InvalidInput):
            CaseInput(3, 7, 0)

    def test_squarefree(self):
        assert is_squarefree(1) and is_squarefree(6) and is_squarefree(10)
        assert not is_squarefree(4) and not is_squarefree(18)


class TestClassify:
    def test_part_i_and_ii_together(self):
        verdict = classify(CaseInput(3, 7, 10))
        assert verdict.part_i and verdict.part_ii and not verdict.part_iii
        # part (i) supplies the recorded choice: s = 0, r = 2(m-k-2) > 2 even
        assert (verdict.s, verdict.r) == (0, 4)
        assert verdict.window_ok

    def test_parts_ii_iii(self):
        verdict = classify(CaseInput(3, 5, 1))
        assert (verdict.part_i, verdict.part_ii, verdict.part_iii) == (False, True, True)
        assert (verdict.s, verdict.r) == (0, 0)
        assert verdict.window_ok
        assert "mod 6" in verdict.congruence_details

    def test_nothing_applies(self):
        verdict = classify(CaseInput(5, 6, 1))
        assert not verdict.any_part
        assert not verdict.window_ok

    def test_level_constraints(self):
        square = classify(CaseInput(3, 5, 4))
        assert not square.part_ii and not square.part_iii
        squarefree = classify(CaseInput(3, 5, 6))
        assert squarefree.part_ii and not squarefree.part_iii

    def test_beta_and_eta_exponent(self):
        verdict = classify(CaseInput(3, 7, 1))
        # s = m - k - 2 = 2 is recorded only when part (i) does not apply
        assert verdict.s == 0 and verdict.r == 4
        assert verdict.beta == 2 * (3 + 14 + 0 - 4)
        assert verdict.eta_exponent == 6 * 13

    def test_monotone_in_m(self):
        for k in (3, 5, 7):
            previous = False
            for m in range(k + 1, k + 16):
                verdict = classify(CaseInput(k, m, 2))
                if previous:
                    assert verdict.part_i
                previous = verdict.part_i


class TestClassifyOracle:
    def test_matches_the_fraction_oracle(self):
        # classify compares on 2m-scaled integers; the oracle in Fractions
        for k in range(3, 42, 2):
            for m in range(3, 121):
                for N in range(1, 13):
                    verdict = classify(CaseInput(k, m, N))
                    assert verdict == oracle_verdict(k, m, N), (k, m, N)


class TestAgainstPerCaseOracle:
    """The one-pass classifier against the per-case arithmetic it replaced."""

    def test_ci_sweep_grid(self):
        # odd k 3..199, m - k 1..120, N 1, 2, 3, 4, 6: the CI catalog sweep
        levels = [1, 2, 3, 4, 6]
        classes = level_classes(levels)
        for k in range(3, 200, 2):
            for m in range(k + 1, k + 121):
                expected = [oracle_classify(k, m, N) for N in levels]
                assert classify_levels(k, m, levels, classes) == expected, (k, m)
                assert classify_levels(k, m, levels) == expected, (k, m)
                assert [classify(CaseInput(k, m, N)) for N in levels] == expected, (k, m)

    def test_shuffled_and_repeated_levels(self):
        rng = random.Random(23)
        pool = list(range(1, 50))
        for k, m in [(3, 5), (3, 7), (5, 9), (3, 4), (7, 8), (5, 13), (11, 13), (3, 40),
                     (9, 10), (21, 60), (5, 6)]:
            for _ in range(20):
                levels = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
                levels += rng.sample(levels, min(3, len(levels)))  # repeats
                rng.shuffle(levels)
                expected = [oracle_classify(k, m, N) for N in levels]
                assert classify_levels(k, m, levels) == expected, (k, m, levels)
                assert classify_levels(k, m, levels, level_classes(levels)) == expected
                for N, (_, squarefree) in zip(levels, level_classes(levels)):
                    assert classify(CaseInput(k, m, N)) == oracle_classify(k, m, N, squarefree)


class TestClassifyLevels:
    def test_matches_classify_on_every_level(self):
        levels = list(range(1, 37))
        shuffled = levels[::-1][::2] + levels[::2]  # even levels, then odd ones from N = 1
        for k in range(3, 42, 2):
            for m in range(3, 81):
                expected = [classify(CaseInput(k, m, N)) for N in levels]
                got = classify_levels(k, m, levels)
                assert got == expected, (k, m)
                assert all(type(v) is CaseVerdict for v in got)
                by_level = dict(zip(levels, expected))
                assert classify_levels(k, m, shuffled) == [by_level[N] for N in shuffled]

    @staticmethod
    def counting_fields(monkeypatch, seen):
        """Patch the per-class seam to record the classes each (k, m) asks for."""
        fields_of = injectivity._class_fields

        def counting(k, m, keys):
            keys = list(keys)
            seen.append(keys)
            return fields_of(k, m, keys)

        monkeypatch.setattr(injectivity, "_class_fields", counting)

    def test_one_classify_per_level_class(self, monkeypatch):
        seen = []
        self.counting_fields(monkeypatch, seen)
        verdicts = classify_levels(5, 9, [4, 6, 1, 2, 8, 3, 1])
        assert [v.N for v in verdicts] == [4, 6, 1, 2, 8, 3, 1]
        # one evaluation per class: not square-free, square-free, N = 1
        assert seen == [[(False, False), (False, True), (True, True)]]
        assert verdicts == [oracle_classify(5, 9, N) for N in [4, 6, 1, 2, 8, 3, 1]]

    def test_classes_worked_out_once(self, monkeypatch):
        levels = list(range(1, 37))
        classes = level_classes(levels)
        assert classes == [(n == 1, is_squarefree(n)) for n in levels]
        grid = [(k, m) for k in range(3, 42, 2) for m in range(3, 81)]
        expected = {(k, m): [classify(CaseInput(k, m, N)) for N in levels] for k, m in grid}
        tested, seen = [], []
        squarefree = injectivity.is_squarefree
        monkeypatch.setattr(injectivity, "is_squarefree",
                            lambda n: tested.append(n) or squarefree(n))
        self.counting_fields(monkeypatch, seen)
        for k, m in grid:
            got = classify_levels(k, m, levels, classes)
            assert got == expected[k, m], (k, m)
            assert all(type(v) is CaseVerdict for v in got)
        # each class once per (k, m), in the order of its first level 1, 2, 4
        assert seen == len(grid) * [[(True, True), (False, True), (False, False)]]
        assert tested == []
        assert level_classes([4, 6, 1, 9, 2]) == [(False, False), (False, True), (True, True),
                                                  (False, False), (False, True)]
        assert tested == [4, 6, 1, 9, 2]
        with pytest.raises(InvalidInput):
            level_classes([1, 0])

    def test_validates_like_case_input(self):
        assert classify_levels(3, 5, []) == []
        for k, m, levels in [(4, 7, [1]), (1, 7, [1]), (3, 2, [1]), (3, 7, [0]),
                             (3, 7, [1, 2, -6])]:
            with pytest.raises(InvalidInput):
                classify_levels(k, m, levels)


class TestWindow:
    def test_part_i_example(self):
        verdict = classify(CaseInput(3, 7, 1))
        assert (verdict.s, verdict.r) == (0, 4) and verdict.window_ok
        upper, lower, choice = window_bounds(7, 0, 4)
        assert (upper, lower, choice) == (10 - F(12, 7), 4 - F(3, 7), 4)

    def test_minimal_gap_example(self):
        verdict = classify(CaseInput(3, 5, 1))
        assert (verdict.s, verdict.r) == (0, 0) and verdict.window_ok

    def test_choice_equality_fails(self):
        # m - k = 1 is below every choice point 2 + s + r/2: no part applies,
        # and a case no part accepts has no window to hold
        verdict = classify(CaseInput(3, 4, 1))
        assert not verdict.any_part and not verdict.window_ok

    def test_scaled_comparisons_match_fraction_formula(self):
        # the 2m-scaled integer comparisons give the Fraction window on
        # every accepted case, including wide gaps m - k where part (i)'s
        # r = 2(m - k - 2) is large; a rejected case has no window to hold
        for k in range(3, 200, 2):
            for m in range(k + 1, k + 121):
                for N in (1, 4):
                    verdict = classify(CaseInput(k, m, N))
                    upper, lower, choice = window_bounds(m, verdict.s, verdict.r)
                    assert verdict.window_ok == (verdict.any_part and upper > m - k > lower
                                                 and m - k == choice)

    def test_requires_m_above_three(self):
        # the window argument needs m > 3; at m = 3 no part applies
        for k in (3, 5):
            for N in (1, 2, 4):
                verdict = classify(CaseInput(k, 3, N))
                assert not verdict.any_part and not verdict.window_ok

    def test_passes_on_accepted_grid(self):
        for k in range(3, 22, 2):
            for m in range(k + 2, k + 21):
                verdict = classify(CaseInput(k, m, 1))
                if verdict.any_part:
                    assert verdict.window_ok


class TestNonintegrality:
    def test_m5(self):
        report = nonintegrality_check(5)
        assert report.value == F(84, 5)
        assert not report.is_integer

    def test_m6_discrepancy(self):
        report = nonintegrality_check(6)
        assert report.value == 30
        assert report.is_integer

    def test_m7(self):
        assert nonintegrality_check(7).value == F(330, 7)

    def test_exactly_m6_flags(self):
        flagged = [m for m in range(4, 1001) if nonintegrality_check(m).is_integer]
        assert flagged == [6]

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            nonintegrality_check(3)


class TestCongruence:
    def test_m5(self):
        verdict = classify(CaseInput(3, 5, 1))
        assert verdict.congruence_details == (
            "3m-2=13 = 1 (mod 6) [ok]; 3m-2=13 = 1 (mod 12), needs != 3 [ok]")

    def test_m9(self):
        # part (i) applies too; the congruence text is part (ii)/(iii)'s
        verdict = classify(CaseInput(3, 9, 1))
        assert verdict.part_i and verdict.part_ii and verdict.part_iii
        assert verdict.congruence_details == (
            "3m-2=25 = 1 (mod 6) [ok]; 3m-2=25 = 1 (mod 12), needs != 3 [ok]")

    def test_part_iii_always_satisfied(self):
        for m in range(5, 100, 2):
            for k in range(3, m - 1, 2):
                verdict = classify(CaseInput(k, m, 1))
                assert verdict.part_iii
                assert verdict.congruence_details == congruence_text(m)
                assert "FAIL" not in verdict.congruence_details

    def test_negative_s_rejected(self):
        # parts (ii) and (iii) need s = m - k - 2 >= 0, so no congruence text
        for k, m in ((7, 7), (7, 8), (5, 6), (3, 4)):
            for N in (1, 2):
                verdict = classify(CaseInput(k, m, N))
                assert not verdict.part_ii and not verdict.part_iii
                assert verdict.congruence_details == ""

    def test_s_parity_matches_index_parity(self):
        for k in range(3, 100, 2):
            for m in range(k + 2, 100):
                s = m - k - 2
                assert (s % 2 == 0) == (m % 2 == 1)
