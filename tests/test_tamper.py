"""verify_equilibrium against seeded edits of solved profiles, and as the exhaustive search's gate.

Rich games carry unions, degenerate points, right-open ends and full
verifiability.  Each edit of a solved profile keeps it structurally valid
(the claimed value is recomputed from the edited signal, messaging and
beliefs wherever the edit moves it) and must be rejected with the condition
and the kind of witness that the edit calls for.
"""

import random
from collections import Counter
from fractions import Fraction as F

from disclosuregame import GameSpec, Signal, solve, step_eval, verify_equilibrium
from disclosuregame import equilibrium, grid, oracle, piecewise, rationals
from disclosuregame.equilibrium import _belief_of
from disclosuregame.oracle import exhaustive_equilibria
from disclosuregame.verifiability import IDENTITY_PREFIX, identity_name, messages_at

from genutil import rand_oracle_game, rand_payoff, rand_point, rand_rich_structure
from reference_paths import above_detail, line_clears_w, signal_value

KINDS = ("value_up", "value_down", "unavailable", "worse", "off_path", "identity", "bayes")


def level(game, beliefs, name):
    """v at the belief the receiver holds after message name."""
    return step_eval(game.payoff, _belief_of(game, beliefs, name))


def rebuilt(eq, game, support, weights, messaging, beliefs):
    """eq with the given signal, messaging and beliefs, and the value they pay."""
    signal = Signal(support, weights)
    value = sum(w * level(game, beliefs, messaging[s]) for s, w in zip(signal.support, signal.weights))
    return eq.replace(signal=signal, messaging=messaging, beliefs=beliefs, value=value)


def tampered(game, eq):
    """(kind, edited profile, expected condition, expected witness or None) for every edit that applies to eq.

    value_up / value_down move one end of a split toward the prior: the
    upper end pays its higher level with more weight, the lower end its
    lower level, so the value leaves the best response upward (no signal
    reaches it: the upper end's message is not available closer to the
    prior) or downward.  A type sent to a worse available message, or an
    off-path belief raised to the top of its hull where an on-path type can
    send it, lowers the value below the best response; a type sent to an
    unavailable message of the same level keeps the value, and fails (2).
    """
    p, structure = game.prior, game.structure
    s_lo, s_hi = eq.s_minus, eq.s_plus
    if s_lo < p < s_hi:
        m_lo, m_hi = eq.messaging[s_lo], eq.messaging[s_hi]
        for kind, lo, hi in (("value_up", s_lo, (p + s_hi) / 2), ("value_down", (s_lo + p) / 2, s_hi)):
            w_lo = (hi - p) / (hi - lo)
            yield kind, rebuilt(eq, game, (lo, hi), (w_lo, 1 - w_lo), {lo: m_lo, hi: m_hi}, eq.beliefs), 1, None
    for s in eq.signal.support:
        sent, avail = eq.messaging[s], messages_at(structure, s)
        here = level(game, eq.beliefs, sent)
        same = [m for m in structure.names if m not in avail and level(game, eq.beliefs, m) == here]
        if same:
            yield "unavailable", eq.replace(messaging={**eq.messaging, s: same[0]}), 2, (s, same[0])
        worse = [m for m in sorted(avail) if not m.startswith(IDENTITY_PREFIX) and level(game, eq.beliefs, m) < here]
        if worse:
            messaging = {**eq.messaging, s: worse[0]}
            yield "worse", rebuilt(eq, game, eq.signal.support, eq.signal.weights, messaging, eq.beliefs), 1, None
    on_path = set(eq.messaging.values())
    for m, supp in structure.messages:
        top = supp.hull_bounds()[1]
        if m not in on_path and any(
            m in messages_at(structure, s) and step_eval(game.payoff, top) > level(game, eq.beliefs, eq.messaging[s])
            for s in eq.signal.support
        ):
            yield "off_path", eq.replace(beliefs={**eq.beliefs, m: top}), 1, None
            break
    if structure.full_verifiability:
        x = next(x for x in (F(1, 7), F(2, 7), F(3, 7)) if x not in eq.messaging)
        name, b = identity_name(x), x + F(1, 11)
        yield "identity", eq.replace(beliefs={**eq.beliefs, name: b}), 3, (name, b)
    for m, supp in structure.messages:
        if m not in on_path:
            continue
        b = eq.beliefs[m]
        lo, hi = supp.hull_bounds()
        moved = [q for q in (b + (hi - b) / 3, lo + (b - lo) / 3) if q != b and step_eval(game.payoff, q) == level(game, eq.beliefs, m)]
        if moved:
            yield "bayes", eq.replace(beliefs={**eq.beliefs, m: moved[0]}), 3, (m, moved[0])
            break


def test_seeded_edits_of_rich_solutions_are_rejected():
    # a condition-(1) failure below the best response carries a signal with
    # mean at the prior that pays more than the claim; one above it carries
    # a slope: the line through (prior, claim) with that slope clears w
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        seen = Counter()
        for _ in range(150):
            game = GameSpec(rand_payoff(rng), rand_point(rng), rand_rich_structure(rng))
            eq = solve(game)
            assert verify_equilibrium(game, eq).ok
            for kind, bad, condition, witness in tampered(game, eq):
                seen[kind] += 1
                report = verify_equilibrium(game, bad)
                assert not report.ok and report.condition == condition, (seed, kind, report)
                if condition != 1:
                    assert report.witness == witness, (seed, kind, report)
                    continue
                if kind == "value_up":
                    assert report.detail == above_detail(game, bad.value)
                    assert line_clears_w(game, bad.beliefs, bad.value, report.witness)
                else:
                    u = signal_value(game, bad.beliefs, report.witness)
                    assert report.witness.mean == game.prior and u > bad.value
                    assert report.detail == (
                        f"profitable deviation: value {bad.value} below {u}, the witness signal's value"
                        " (not necessarily the best response)"
                    )
        assert all(seen[kind] >= 3 for kind in KINDS), (seed, seen)


def test_verify_runs_no_hull_code(monkeypatch):
    # condition (1) is a supporting-line test: with every hull kernel that
    # the solver uses raising, verify still accepts solved profiles and
    # rejects their edits, each with its condition
    rng = random.Random(5)
    cases = []
    for _ in range(80):
        game = GameSpec(rand_payoff(rng), rand_point(rng), rand_rich_structure(rng))
        eq = solve(game)
        cases.append((game, eq, list(tampered(game, eq))))

    def refuse(*args):
        raise AssertionError("verify ran hull code")

    for module in (rationals, piecewise, equilibrium, grid, oracle):
        for name in ("upper_hull", "not_right_turn", "strict_records", "on_line_through", "_hull_segment"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    conditions = Counter()
    for game, eq, edits in cases:
        assert verify_equilibrium(game, eq).ok
        for _, bad, condition, _ in edits:
            report = verify_equilibrium(game, bad)
            assert not report.ok and report.condition == condition
            conditions[condition, type(report.witness).__name__] += 1
    assert set(conditions) == {(1, "Signal"), (1, "Fraction"), (2, "tuple"), (3, "tuple")}, conditions


def test_search_gate_rejects_what_the_int_tests_pass(monkeypatch):
    # with every message available at every grid point in the search's own
    # masks (verify's condition (2) still reads messages_at), the search's
    # int tests pass profiles that send unavailable messages;
    # verify_equilibrium, the search's only exact gate, must reject them, so
    # every profile found is a true equilibrium, found in the unpatched order
    rng = random.Random(12)
    games = [rand_oracle_game(rng, want_pnbp=k % 2 == 0) for k in range(24)]
    unpatched = [exhaustive_equilibria(game, 4, 12) for game in games]
    verify, rejected = oracle.verify_equilibrium, []

    def counted(game, eq):
        report = verify(game, eq)
        if not report.ok:
            rejected.append(report.condition)
        return report

    monkeypatch.setattr(oracle, "_slot_masks", lambda slots, index, n: [(1 << len(index)) - 1] * n)
    monkeypatch.setattr(oracle, "verify_equilibrium", counted)
    for game, want in zip(games, unpatched):
        found = exhaustive_equilibria(game, 4, 12)
        remaining = iter(want)
        assert all(eq in remaining for eq in found)  # a sub-list, in order
    assert len(rejected) > 100 and 2 in rejected
