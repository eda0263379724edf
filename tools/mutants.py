"""Mutation run: is each named mutant of the package caught by the test suite?

    python tools/mutants.py              # every mutant, about 18 minutes on one core
    python tools/mutants.py NAME ...     # only the named ones

Not part of tier-1.  Each mutant is one exact source edit (a snippet and its
replacement) that must match exactly once in ``src/disclosuregame`` and still
parse.  The snippet is searched across the package, so a function keeps its
mutants when it moves between modules.  Mutants run one at a time: the edit is
written into a temporary copy of what the tests read (``src``, ``tests``,
``fixtures``, ``pyproject.toml`` and ``README.md``), and ``pytest -x`` runs
there, without the tier-1 test that checks this list against the unmutated
package (``tests/test_mutants_anchored.py``).  The unmutated copy runs
first and must pass, or no kill would mean anything; its time sets the cap
on each mutant's run (``TIMEOUT_FACTOR`` times it).  A failing run, or one
stopped at the cap, kills the mutant.

One line per mutant: killed (with the first failing test), or survived (with
the reason when the mutant is listed as equivalent: no input tells it apart).
The exit code is 1 when a survivor has no stated reason, when a mutant listed
as equivalent is killed (its reason is wrong), or when a snippet does not
match exactly once; 2 when the unmutated tests fail; else 0.  Stdlib only; needs ``pytest`` and ``hypothesis``
like the tests themselves.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "disclosuregame"
COPIED = ("src", "tests", "fixtures", "pyproject.toml", "README.md")
# each mutant's run is capped at this multiple of the unmutated run's time:
# the same machine runs the same suite up to 1.7x slower from one run to the
# next, and a mutant listed as equivalent may make the suite slower still, so
# 3x stops a mutant that hangs the tests without killing one on the clock
TIMEOUT_FACTOR = 3
ANCHORING_TEST = "tests/test_mutants_anchored.py"


class Mutant(NamedTuple):
    name: str
    old: str
    new: str
    equivalent: Optional[str] = None  # why no input tells the mutant apart


# verify_equilibrium's identity-belief test and its conditions (1) and (2), in
# source order, for the mutants that delete or move them
_IDENTITY_TEST = """    for name, b in beliefs.items():
        if name.startswith(IDENTITY_PREFIX) and b != min_inverse(game.structure, name):
            return VerifyReport(False, 3, f"identity belief {name!r} must equal its type", (name, b))
"""
_CONDITION_ONE = """
    # (1) optimal information acquisition
    report = grid._supporting_line(game, beliefs, value)
    if report is not None:
        return report
"""
_CONDITION_TWO = """
    # (2) sequentially rational communication; level reads each message's
    # payoff piece (pieces rank values) once
    for s, m in zip(eq.signal.support, sent):
        avail = messages_at(game.structure, s)
        if m not in avail:
            return VerifyReport(False, 2, f"type {s} sends unavailable message {m!r}", (s, m))
        lm = level(m)
        for other in sorted(avail):
            if level(other) > lm:
                return VerifyReport(
                    False, 2, f"type {s} prefers message {other!r} over {m!r}", (s, other)
                )
"""

MUTANTS = (
    # records: the frozen value types' base
    Mutant("records.eq_without_class_check", "if other.__class__ is self.__class__:", "if isinstance(other, Record):"),
    Mutant("records.hash_drops_last_field", "return hash(self._values())", "return hash(self._values()[:-1])"),
    Mutant("records.assignment_allowed", 'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)"),
    Mutant("records.replace_drops_changes", "for name in self._fields}, **changes})", "for name in self._fields}})"),
    Mutant("records.store_skips_post_init", "post_init(self)", "pass"),
    Mutant("records.store_drops_last_field", "zip(self._fields, values)", "zip(self._fields, values[:-1])"),
    # rationals: the parse fast path and the int kernels
    Mutant("rationals.parse_zero_denominator", "        if d:\n            g = gcd(n, d)", "        if True:\n            g = gcd(n, d)"),
    Mutant("rationals.pair_gcd_dropped", "return n // g, d // g", "return n, d"),
    Mutant("rationals.pair_sign_on_denominator", "return n // g, d // g", "return abs(n) // g, (d if n >= 0 else -d) // g"),
    Mutant("rationals.unit_interval_open_at_one", "return 0 <= q.numerator <= q.denominator",
           "return 0 <= q.numerator < q.denominator"),
    Mutant("rationals.on_line_drops_xd",
           "return (yn * y0d - y0n * yd) * dx * xd == dy * (xn * x0d - x0n * xd) * yd",
           "return (yn * y0d - y0n * yd) * dx == dy * (xn * x0d - x0n * xd) * yd"),
    Mutant("rationals.on_line_drops_y1d",
           "dx = (x1.numerator * x0d - x0n * x1.denominator) * y1.denominator",
           "dx = (x1.numerator * x0d - x0n * x1.denominator)"),
    Mutant("rationals.turn_strict",
           "rhs = (ayn * oyd - oyn * ayd) * (pxn * oxd - oxn * pxd) * axd * pyd\n    return lhs >= rhs",
           "rhs = (ayn * oyd - oyn * ayd) * (pxn * oxd - oxn * pxd) * axd * pyd\n    return lhs > rhs"),
    Mutant("rationals.turn_drops_pxd",
           "lhs = (axn * oxd - oxn * axd) * (pyn * oyd - oyn * pyd) * ayd * pxd",
           "lhs = (axn * oxd - oxn * axd) * (pyn * oyd - oyn * pyd) * ayd"),
    Mutant("rationals.hull_pops_on_strict_turn",
           "while len(hull) >= 2 and not_right_turn(points[hull[-2]], points[hull[-1]], p):",
           "while len(hull) >= 2 and not not_right_turn(points[hull[-2]], points[hull[-1]], p):"),
    Mutant("rationals.hull_pops_once", "while len(hull) >= 2 and not_right_turn(", "if len(hull) >= 2 and not_right_turn("),
    Mutant("rationals.records_on_ties", "if levels[i] > top:", "if levels[i] >= top:"),
    # piecewise: point lookups, validation and the envelope
    Mutant("piecewise.piece_on_gap_reads_next", "return bisect_right(self.breakpoints, x) - 1",
           "return bisect_right(self.breakpoints, x) - (x in self.breakpoints)"),
    Mutant("piecewise.pl_eval_on_gap_reads_next", "i = bisect_right(g.xs, x) - 1", "i = bisect_right(g.xs, x) - (x in g.xs)"),
    Mutant("piecewise.breakpoints_non_strict", "if not an * bd < bn * ad:", "if not an * bd <= bn * ad:"),
    Mutant("piecewise.vertex_x_non_strict", "if any(not an * bd < bn * ad for", "if any(not an * bd <= bn * ad for"),
    Mutant("piecewise.concavity_unchecked", "if any(map(not_right_turn, ints, ints[1:], ints[2:])):", "if False:"),
    Mutant("piecewise.non_decreasing_drops_denominator", "all(an * bd <= bn * ad for (an, ad), (bn, bd) in zip(kept,",
           "all(an * bd <= bn for (an, ad), (bn, bd) in zip(kept,"),
    Mutant("piecewise.non_decreasing_strict", "all(an * bd <= bn * ad for (an, ad), (bn, bd) in zip(kept,",
           "all(an * bd < bn * ad for (an, ad), (bn, bd) in zip(kept,",
           "adjacent values are merged when equal, so consecutive values differ and <= is <"),
    Mutant("piecewise.equal_pieces_not_merged", "if v_pairs[i] != v_pairs[i - 1])", "if True)"),
    Mutant("piecewise.pairs_before_merge", 'set_field(self, "value_pairs", kept)', 'set_field(self, "value_pairs", tuple(v_pairs))'),
    Mutant("piecewise.hull_keeps_first_duplicate", "if key not in best or y > best[key][1]:",
           "if key not in best:"),
    Mutant("piecewise.read_values_unmerged", 'set_field(f, "values", tuple(map(fraction, f.value_pairs)))',
           'set_field(f, "values", tuple(map(fraction, v_pairs)))'),
    Mutant("piecewise.candidates_drop_right_ends", "pts.append((hi, v))", "pass"),
    Mutant("piecewise.pl_eval_last_vertex", "if i == len(g.vertices) - 1:", "if i == len(g.vertices):"),
    # verifiability: supports, the coordinate table, positions and the endpoint sweep
    Mutant("verifiability.open_end_spans_as_closed", "spans.append((2 * rank[lo], 2 * rank[hi] + hi_closed, minimum, name))",
           "spans.append((2 * rank[lo], 2 * rank[hi] + 1, minimum, name))"),
    Mutant("verifiability.span_starts_a_rank_late", "spans.append((2 * rank[lo], 2 * rank[hi]", "spans.append((2 * rank[lo] + 2, 2 * rank[hi]"),
    Mutant("verifiability.merge_shrinks", "runs[-1] = runs[-1][0], max(end, runs[-1][1])", "runs[-1] = runs[-1][0], end"),
    Mutant("verifiability.reader_unions_not_merged", "_canonical(ivs) if len(ivs) > 1 else ivs", "ivs"),
    Mutant("verifiability.lo_above_hi_accepted", "if left > right:", "if False:"),
    Mutant("verifiability.merge_drops_hi_closed", "pairs[end >> 1], end & 1 == 1) for start, end in runs]",
           "pairs[end >> 1], True) for start, end in runs]"),
    Mutant("verifiability.span_end_inclusive",
           "out = {name for start, end, _, name in structure._spans if start <= pos < end}",
           "out = {name for start, end, _, name in structure._spans if start <= pos <= end}"),
    Mutant("verifiability.open_degenerate_interval", "if left == right and not hi_closed:", "if False:"),
    Mutant("verifiability.sweep_fills_past_next_start", "top, stop = -heap[0][0], min(start, heap[0][1])",
           "top, stop = -heap[0][0], heap[0][1]"),
    Mutant("verifiability.sweep_keeps_ended_on_gap", "top, stop = -heap[0][0], min(start, heap[0][1])",
           "top, stop = -heap[0][0], min(start, heap[0][1] + 1)"),
    Mutant("rationals.position_gap_off_by_one", "        return 2 * i - 1\n", "        return 2 * i + 1\n"),
    Mutant("rationals.position_ignores_float_ties", "while keys[i] == f and pairs[i][0] * d < n * pairs[i][1]:",
           "while False:"),
    Mutant("rationals.table_sort_on_float_only", "if len(set(map(itemgetter(0), entries))) < len(entries):", "if False:"),
    Mutant("rationals.widened_table_marks_every_point", "((n / d, (n, d), False, None) for n, d in dict.fromkeys(others)",
           "((n / d, (n, d), True, None) for n, d in dict.fromkeys(others)"),
    Mutant("verifiability.coverage_unchecked",
           'raise ConstructionError("message supports must cover all of [0,1]")', "return 0"),
    Mutant("verifiability.touching_not_merged", "if runs and start <= runs[-1][1]:", "if runs and start < runs[-1][1]:"),
    Mutant("verifiability.lcs_ignores_flag",
           "return LowestConsistentSet(tuple(minima), structure.full_verifiability)",
           "return LowestConsistentSet(tuple(minima), False)"),
    # verifiability: the span decoder, the minima reader, the complement and identity names
    Mutant("verifiability.decoder_drops_hi_closed", "append((pairs[start >> 1], pairs[end >> 1], end & 1 == 1))",
           "append((pairs[start >> 1], pairs[end >> 1], True))"),
    Mutant("verifiability.minima_read_suprema", "for name, (minimum, _) in self._hulls.items()}",
           "for name, (_, minimum) in self._hulls.items()}"),
    Mutant("verifiability.complement_gap_non_strict", "if cursor[0] * lo[1] < lo[0] * cursor[1]:",
           "if cursor[0] * lo[1] <= lo[0] * cursor[1]:"),
    Mutant("verifiability.complement_drops_point_one", "if cursor != (1, 1) or cursor_closed:", "if cursor != (1, 1):"),
    Mutant("verifiability.identity_name_not_canonical", "and in_unit_interval(s) and identity_name(s) == name:",
           "and in_unit_interval(s):"),
    Mutant("verifiability.identity_outside_unit_interval", "and in_unit_interval(s) and identity_name(s) == name:",
           "and identity_name(s) == name:"),
    # equilibrium: the solver's level table and split walk, and verify
    Mutant("equilibrium.identity_loses_ties", "candidates.append((-pos, identity_name(s)))",
           "candidates.append((-pos + 1, identity_name(s)))"),
    Mutant("equilibrium.best_message_largest_name", "return min(candidates)[1]", "return max(candidates)[1]"),
    Mutant("equilibrium.game_point_off_table_reads_point", "g_at = [to_game[at_point[j] if marked else on_gap[j]]",
           "g_at = [to_game[at_point[j]]"),
    Mutant("equilibrium.structure_ranks_as_game_ranks",
           "return list(compress(range(len(self._table.marked)), self._table.marked))",
           "return list(range(len(self._table.marked)))"),
    Mutant("equilibrium.level_fill_skips_breakpoint", "piece[lo:hi] = [k] * (hi - lo)",
           "piece[lo + 1:hi] = [k] * (hi - lo - 1)"),
    Mutant("equilibrium.full_verif_g_not_identity", "return piece, piece, piece[:-1], [True] * n",
           "return piece, [0] * n, [0] * (n - 1), [True] * n"),
    Mutant("equilibrium.pnbp_weak", "if (level := piece[to_game[minimum]]) > vp", "if (level := piece[to_game[minimum]]) >= vp"),
    Mutant("equilibrium.hull_levels_without_gaps", "top = list(map(max, at, [at[0], *gap], [*gap, at[-1]]))",
           "top = list(at)"),
    Mutant("equilibrium.walk_on_right_records", "top, from_left, _ = game._hull_levels",
           "top, _, from_left = game._hull_levels"),
    Mutant("equilibrium.split_edge_right_of_prior", "e = bisect_right(hull.xs, p) - 1", "e = bisect_right(hull.xs, p)"),
    Mutant("equilibrium.posterior_belief_skeptical", "        beliefs[m] = s\n", ""),
    Mutant("equilibrium.value_identity_unchecked", "if total * value.denominator != value.numerator * den:", "if False:"),
    Mutant("equilibrium.hull_check_dropped", "if not (ln * bd <= bn * ld and bn * hd <= hn * bd):", "if False:"),
    Mutant("equilibrium.hull_sup_strict", "bn * hd <= hn * bd", "bn * hd < hn * bd"),
    Mutant("equilibrium.condition_two_and_identity_deleted", _IDENTITY_TEST + _CONDITION_ONE + _CONDITION_TWO, _CONDITION_ONE),
    Mutant("equilibrium.identity_test_after_communication", _IDENTITY_TEST + _CONDITION_ONE + _CONDITION_TWO,
           _CONDITION_ONE + _CONDITION_TWO + _IDENTITY_TEST),
    Mutant("equilibrium.unavailable_message_accepted", "if m not in avail:", "if False:"),
    Mutant("equilibrium.better_message_ignored", "if level(other) > lm:", "if False:"),
    Mutant("equilibrium.better_message_weak", "if level(other) > lm:", "if level(other) >= lm:"),
    Mutant("equilibrium.identity_belief_name_unchecked", "                min_inverse(game.structure, name)\n            except",
           "                game.structure.full_verifiability or min_inverse(game.structure, name)\n            except"),
    Mutant("equilibrium.unknown_belief_name_accepted", "elif name not in game.structure._hulls:", "elif False:"),
    Mutant("equilibrium.identity_belief_unchecked",
           "if name.startswith(IDENTITY_PREFIX) and b != min_inverse(game.structure, name):", "if False:"),
    Mutant("equilibrium.bayes_plausibility_unchecked", "if mean * p.denominator != p.numerator * den:", "if False:"),
    Mutant("equilibrium.signal_sum_unchecked", "if total != den:", "if False:"),
    Mutant("equilibrium.bayes_unchecked", "if mean * mass_den * b.denominator != b.numerator * mass * mean_den:", "if False:"),
    # grid: the critical grid and the interim values
    Mutant("grid.midpoint_drops_factor_two", "(an * bd + bn * ad, 2 * ad * bd)", "(an * bd + bn * ad, ad * bd)"),
    Mutant("grid.piece_table_off_by_one", "starts = [2 * rank[b] for b in breaks]", "starts = [2 * rank[b] + 1 for b in breaks]"),
    Mutant("grid.piece_table_run_longer", "piece += [k] * (b - a)", "piece += [k] * (b - a + 1)"),
    Mutant("grid.off_grid_level_low", "sorted([(piece[position(beliefs[name])], a, b)",
           "sorted([(piece[(pos := position(beliefs[name]))] - pos % 2, a, b)"),
    Mutant("grid.fill_open_end_as_closed", "slot[end >> 1] + (end & 1)", "slot[end >> 1] + 1"),
    Mutant("grid.fill_in_ascending_level_order", "for a, b, name in slots], reverse=True):", "for a, b, name in slots]):"),
    Mutant("grid.fill_skips_a_slot", "free[i:j] = [j] * (j - i)", "free[i:j + 1] = [j + 1] * (j + 1 - i)"),
    Mutant("grid.identity_level_ignored", "w = list(map(max, w, piece))", "pass"),
    # grid: condition (1)'s supporting-line test
    Mutant("grid.line_ignores_w_at_prior", "at_p = rise[w[k]][0]", "at_p = -1"),
    Mutant("grid.line_drops_first_of_run", "for i in (a, b - 1):", "for i in (b - 1,):"),
    Mutant("grid.line_drops_last_of_run", "for i in (a, b - 1):", "for i in (a,):"),
    Mutant("grid.line_sides_swapped",
           "if i > k:\n                if num * lo[1] > lo[0] * den:\n                    lo = num, den, i\n            elif i < k:",
           "if i < k:\n                if num * lo[1] > lo[0] * den:\n                    lo = num, den, i\n            elif i > k:"),
    Mutant("grid.line_feasibility_strict", "if lo[0] * hi[1] > hi[0] * lo[1]:", "if lo[0] * hi[1] >= hi[0] * lo[1]:"),
    Mutant("grid.line_tie_dropped", "if lo[0] * hi[1] == hi[0] * lo[1]:", "if False:"),
    Mutant("grid.line_accepts_above", "if lo[0] * hi[1] == hi[0] * lo[1]:", "if True:"),
    Mutant("grid.above_detail_ignores_open_ends", "exact = all(end & 1 for _, end, _, _ in game.structure._spans)", "exact = True"),
    # oracle: the exhaustive search
    Mutant("oracle.belief_over_all_weights", "scale * mass)", "scale * total)"),
    Mutant("oracle.search_gate_bypassed", "if verify_equilibrium(game, eq).ok:", "if True:"),
    Mutant("oracle.condition_two_weak", "if v_grid[r] < v_grid[s]:", "if v_grid[r] <= v_grid[s]:"),
    Mutant("oracle.sendable_ignores_lower_types", "below |= avail[r]", "pass"),
    Mutant("oracle.size_two_weights_swapped", "value = scaled[v_grid[a]] * (B - P) + scaled[v_grid[b]] * (P - A)",
           "value = scaled[v_grid[a]] * (P - A) + scaled[v_grid[b]] * (B - P)"),
    Mutant("oracle.dedup_always", "return not (dedup_values and target in values) and",
           "return not (target in values) and"),
    Mutant("oracle.level_dedup_always", "if dedup_values and value_p in values or sk_max[",
           "if value_p in values or sk_max["),
    Mutant("oracle.pre_test_dedup_always", "p_open = not (dedup_values and value_p in values)",
           "p_open = not (value_p in values)"),
    Mutant("oracle.one_level_condition_two_weak", "sk_max[around & ~mu] > l_p:", "sk_max[around & ~mu] >= l_p:"),
    Mutant("oracle.sk_max_folded_with_min", "sk_max += [max(level, top) for top in sk_max]",
           "sk_max += [min(level, top) for top in sk_max]",
           "condition (2) is implied by the best-response test: an unsent message ranked above the sender's level "
           "at a support type raises w there, so a signal on the support beats the profile's value; the lookup "
           "only spares hull work"),
    Mutant("oracle.slot_mask_drops_lowest_message", "        avail[a:b] = [mask | bit for mask in avail[a:b]]\n    return avail\n",
           "        avail[a:b] = [mask | bit for mask in avail[a:b]]\n    return [mask & (mask - 1) for mask in avail]\n"),
    Mutant("oracle.feasibility_wrong_pooled_end", "e, g = (ip, b) if a_first else (b, ip)",
           "e, g = (b, ip) if a_first else (ip, b)"),
    Mutant("oracle.diagonal_only_despite_pairs", "if not (none_pool or any(feasible)):", "if not none_pool:"),
    Mutant("oracle.pair_position_swapped", "k = 0 if m1 == m2 else 1 if m0 == m2 else 2",
           "k = 0 if m0 == m2 else 1 if m1 == m2 else 2"),
    Mutant("oracle.chord_test_swapped", "yb * (C - A) == ya * (C - B) + yc * (B - A)",
           "yb * (C - A) == ya * (B - A) + yc * (C - B)"),
    Mutant("oracle.separating_value_swapped", "ya * (C - P) + yc * (P - A), C - A)", "ya * (P - A) + yc * (C - P), C - A)"),
    Mutant("oracle.pair_lower_piece_dropped", "if bottom:\n            return [mid]", "if bottom:\n            return []"),
    Mutant("oracle.falling_candidates_reordered", "return [cut(l_p), mid] if rising else [mid, cut(l_p)]",
           "return [cut(l_p), mid]"),
    Mutant("oracle.pair_plan_reused_as_empty",
           "if plans[k] is None:\n                                        plans[k] = pair_candidates(",
           "if plans[k] is not None:\n                                        plans[k] = []\n"
           "                                    else:\n                                        plans[k] = pair_candidates("),
    Mutant("oracle.skip_before_v_p_certified", "if not p_open and (la == lb == lc or not on_chord):",
           "if la == lb == lc or not on_chord:"),
    Mutant("oracle.skip_on_chord_triples", "if not p_open and (la == lb == lc or not on_chord):", "if not p_open:",
           "with dedup_values no none-pooling triple adds a value: the pair of its outer types a < p < c, sending the "
           "same two messages, is an equilibrium of the same value (the middle message's belief falls to its minimum, "
           "which lowers w only where the chord through (a, v(a)) and (c, v(c)) still bounds it), and size 2 runs "
           "first; so after v(p) is certified only one-level profiles, all worth v(p), could add one"),
    Mutant("oracle.skip_pairs_at_two_levels", "if v_grid[a] == v_grid[b] and dedup_values and value_p in values:",
           "if dedup_values and value_p in values:"),
    Mutant("oracle.size_three_support_at_prior", "for c in range(max(b, ip) + 1, n):", "for c in range(max(b, ip), n):"),
    # comparative: the separation comparison on the decoded intervals
    Mutant("comparative.sep_key_drops_hi_closed", "hi_supports = set(m_hi._intervals().values())",
           "hi_supports = {tuple((lo, hi, True) for lo, hi, _ in ivs) for ivs in m_hi._intervals().values()}"),
    Mutant("comparative.sep_point_test_on_first_interval", "ivs[0][0] == ivs[-1][1]", "ivs[0][0] == ivs[0][1]"),
    # figures
    Mutant("figures.y_drops_hd", "t = (vn * ld - ln * vd) * hd / (vd * span)", "t = (vn * ld - ln * vd) / (vd * span)"),
    Mutant("figures.y_range_without_value",
           "y_lo, y_hi = min(values[0], eq.value, ZERO), max(values[-1], eq.value, ZERO)",
           "y_lo, y_hi = min(values[0], ZERO), max(values[-1], ZERO)"),
    Mutant("figures.limit_marker_at_own_value", 'cy="{py[k - 1]}"', 'cy="{py[k]}"'),
    Mutant("figures.no_identity_bar", 'rows.append(("identity", None))', "pass"),
    Mutant("figures.bar_at_structure_rank", "[(rank[lo], rank[hi]) for lo, hi, _ in ivs]",
           "[(game.structure._table.rank[lo], game.structure._table.rank[hi]) for lo, hi, _ in ivs]"),
    # cli and gamefile: each subcommand imports only the modules it runs
    Mutant("cli.figures_imported_at_start", "from .errors import GameFileError, OracleSizeError, PreconditionError\n",
           "from .errors import GameFileError, OracleSizeError, PreconditionError\nfrom .figures import render_game_svg\n"),
    Mutant("gamefile.comparative_imported_at_start", "from .equilibrium import Equilibrium, GameSpec\n",
           "from .comparative import OrderVerdict\nfrom .equilibrium import Equilibrium, GameSpec\n"),
    # cli: argparse builds the invoked subcommand's parser, from every keyword it passes and that subcommand's arguments
    Mutant("cli.subcommand_gets_wrong_arguments", "arguments=add_arguments)", 'arguments=SUBCOMMANDS["compare"][1])'),
    Mutant("cli.subcommand_drops_prog", "self.kwargs = kwargs",
           'self.kwargs = {key: value for key, value in kwargs.items() if key != "prog"}'),
    # gamefile: the per-file reader, the walker and its field paths
    Mutant("gamefile.memo_takes_bools", "if isinstance(obj, str):\n            pair = memo.get(obj)",
           "if isinstance(obj, (str, int)):\n            pair = memo.get(obj)"),
    Mutant("gamefile.no_memo", "pair = memo.get(obj)", "pair = None"),
    Mutant("gamefile.hi_closed_dropped", "return lo, hi, hi_closed", "return lo, hi, True"),
    Mutant("gamefile.digit_cap_inclusive", 'len(part.strip().lstrip("+-")) > MAX_RATIONAL_DIGITS',
           'len(part.strip().lstrip("+-")) >= MAX_RATIONAL_DIGITS'),
    Mutant("gamefile.undecodable_file_unrefused",
           "    except (ValueError, RecursionError) as exc:  # not UTF-8, a repeated key, an integer over Python's digit limit, nesting too deep\n"
           "        raise GameFileError(f\"{path}: {exc}\") from exc\n", ""),
    Mutant("gamefile.support_index_off_by_one", 'exc.args = (f".{field}[{len(done)}]{exc}",)',
           'exc.args = (f".{field}[{len(done) + 1}]{exc}",)'),
    Mutant("gamefile.unknown_key_accepted", "if not keys.issuperset(obj):", "if False:"),
    Mutant("gamefile.repeated_key_accepted", "json.load(fh, object_pairs_hook=_unique)", "json.load(fh)"),
)


def locate(mutant: Mutant, sources: dict[Path, str]) -> tuple[Optional[Path], str]:
    """The one file the snippet matches, and the mutated source; None and a reason otherwise."""
    hits = [(path, text) for path, text in sources.items() if mutant.old in text]
    count = sum(text.count(mutant.old) for _, text in hits)
    if count != 1:
        return None, f"snippet matches {count} times"
    path, text = hits[0]
    mutated = text.replace(mutant.old, mutant.new)
    try:
        ast.parse(mutated)
    except SyntaxError as exc:
        return None, f"mutated source does not parse: {exc}"
    return path, mutated


def run_tests(workdir: Path, timeout: Optional[float] = None) -> tuple[bool, str]:
    """(failed, first failing test or the reason) for pytest -x in workdir, stopped after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore", ANCHORING_TEST, "tests"]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {timeout:.0f} s"
    if proc.returncode == 0:
        return False, ""
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return True, failed[0] if failed else f"pytest exit code {proc.returncode}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    sources = {path.relative_to(ROOT): path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    bad = 0
    counts = {"killed": 0, "equivalent": 0}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, work / name)
        began = time.perf_counter()
        failed, why = run_tests(work)
        if failed:
            print(f"the tests fail without a mutant: {why}", file=sys.stderr)
            return 2
        unmutated = time.perf_counter() - began
        timeout = TIMEOUT_FACTOR * unmutated
        print(f"unmutated run {unmutated:.0f} s; each mutant's run is stopped after {timeout:.0f} s", flush=True)
        for mutant in chosen:
            path, mutated = locate(mutant, sources)
            if path is None:
                print(f"STALE     {mutant.name}: {mutated}", flush=True)
                bad += 1
                continue
            (work / path).write_text(mutated)
            try:
                killed, why = run_tests(work, timeout)
            finally:
                (work / path).write_text(sources[path])
            if killed and mutant.equivalent:
                print(f"KILLED    {mutant.name} ({path.name}), listed as equivalent: {why}", flush=True)
                bad += 1
            elif killed:
                counts["killed"] += 1
                print(f"killed    {mutant.name} ({path.name}): {why}", flush=True)
            elif mutant.equivalent:
                counts["equivalent"] += 1
                print(f"survived  {mutant.name} ({path.name}), equivalent: {mutant.equivalent}", flush=True)
            else:
                print(f"SURVIVED  {mutant.name} ({path.name}): no test fails and no reason is given", flush=True)
                bad += 1
    minutes = (time.perf_counter() - start) / 60
    print(f"{len(chosen)} mutants: {counts['killed']} killed, {counts['equivalent']} equivalent, "
          f"{bad} unexplained or stale; {minutes:.1f} min")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
