"""vschedlint: rule families, suppression semantics, blessings, tree health.

The checker ships from ``tools/`` (it is a dev tool, not simulation code),
so the tests put that directory on ``sys.path`` themselves.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from vschedlint import config  # noqa: E402
from vschedlint.checker import lint_paths  # noqa: E402
from vschedlint.findings import RULES  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures" / "vschedlint" / "repro"


def lint_fixture(relpath):
    return lint_paths([str(FIXTURES / relpath)])


def rules_of(findings):
    return Counter(f.rule for f in findings)


# ----------------------------------------------------------------------
# Rule families: each must fire on its bad fixture and stay quiet on the
# clean one.
# ----------------------------------------------------------------------
class TestLayeringRules:
    def test_bad_layering_fixture(self):
        got = rules_of(lint_fixture("guest/bad_layering.py"))
        assert got == {"layer-order": 1, "guest-isolation": 2,
                       "guest-abi": 1}

    def test_clean_guest_module(self):
        assert lint_fixture("guest/clean_layering.py") == []

    def test_upward_import_flagged(self):
        got = rules_of(lint_fixture("hypervisor/bad_order.py"))
        assert got == {"layer-order": 1}

    def test_neutral_module_exempt(self):
        assert lint_fixture("hypervisor/clean_neutral.py") == []

    def test_unknown_layer(self):
        got = rules_of(lint_fixture("mystery/widget.py"))
        assert got == {"layer-unknown": 1}


class TestDeterminismRules:
    def test_bad_determinism_fixture(self):
        got = rules_of(lint_fixture("sim/bad_determinism.py"))
        assert got == {"wall-clock": 2, "unseeded-rng": 2,
                       "identity-key": 1, "unordered-iter": 2}

    def test_clean_determinism_fixture(self):
        assert lint_fixture("sim/clean_determinism.py") == []

    def test_monotonic_allowed_in_experiments(self):
        assert lint_fixture("experiments/clean_clock.py") == []

    def test_wallclock_banned_everywhere(self):
        got = rules_of(lint_fixture("experiments/bad_wallclock.py"))
        assert got == {"wall-clock": 2}


class TestSnapshotRules:
    def test_bad_snapshot_fixture(self):
        got = rules_of(lint_fixture("sim/bad_snapshot.py"))
        assert got == {"snapshot-closure": 3, "snapshot-bound-builtin": 1,
                       "snapshot-mutable-default": 1,
                       "snapshot-generator": 2}

    def test_clean_snapshot_fixture(self):
        assert lint_fixture("sim/clean_snapshot.py") == []

    def test_cross_module_mutable_default(self):
        findings = lint_paths([str(FIXTURES / "sim" / "helper_defaults.py"),
                               str(FIXTURES / "sim" / "bad_crossmod.py")])
        assert rules_of(findings) == {"snapshot-mutable-default": 1}
        assert findings[0].path.endswith("bad_crossmod.py")

    def test_unresolvable_import_stays_quiet(self):
        # Alone, ``drain`` cannot be resolved: under-approximate, don't
        # guess.
        assert lint_fixture("sim/bad_crossmod.py") == []

    def test_other_trees_cannot_hide_a_repro_finding(self, tmp_path):
        # A tests/ helper named like the registered repro method must not
        # make the method ambiguous: only src/repro is indexed.
        sim = tmp_path / "repro" / "sim"
        sim.mkdir(parents=True)
        (sim / "wiring.py").write_text(
            "def wire(engine, world):\n"
            "    engine.call_at(10, world.on_tick)\n")
        (sim / "world.py").write_text(
            "class World:\n"
            "    def on_tick(self, seen=[]):\n"
            "        return seen\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_world.py").write_text(
            "def on_tick():\n"
            "    return None\n")
        repro = str(tmp_path / "repro")
        for paths in ([repro], [repro, str(tests)]):
            assert rules_of(lint_paths(paths)) == {
                "snapshot-mutable-default": 1}, paths


class TestCacheKeyRules:
    def test_bad_cachekeys_partial_scan(self):
        # Partial scan: the unresolvable repro import is NOT a gap (every
        # sibling would be); the third-party gap and hidden inputs are.
        got = rules_of(lint_fixture("experiments/bad_cachekeys.py"))
        assert got == {"fingerprint-gap": 1, "hidden-env-input": 3,
                       "hidden-file-input": 2}

    def test_bad_cachekeys_full_scan(self):
        # With the package root in the index the repro-tree gap fires too.
        findings = lint_paths([
            str(FIXTURES / "__init__.py"),
            str(FIXTURES / "experiments" / "bad_cachekeys.py")])
        got = rules_of(findings)
        assert got == {"fingerprint-gap": 2, "hidden-env-input": 3,
                       "hidden-file-input": 2}

    def test_clean_cachekeys_fixture(self):
        assert lint_fixture("experiments/clean_cachekeys.py") == []


class TestLeakageRules:
    def test_bad_leakage_fixture(self):
        findings = lint_fixture("sim/bad_leakage.py")
        assert rules_of(findings) == {"cross-unit-state": 3,
                                      "class-attr-state": 4}
        assert {f.symbol for f in findings} == {
            "memoize", "trace", "bump_runs",
            "WarmPool.mark_reuse", "WarmPool.remember", "WarmPool.reset",
            "WarmPool.record"}

    def test_clean_leakage_fixture(self):
        assert lint_fixture("sim/clean_leakage.py") == []


class TestGuardParity:
    """Every guard_world runtime-rejection class has a static twin.

    The same registrations as ``fixtures .../sim/bad_snapshot.py::wire``
    are made against a real engine; each offender phrase in the runtime
    error must be matched, occurrence for occurrence, by the VSL4xx rule
    that catches it at lint time.
    """

    PHRASE_TO_RULE = {
        "closure": "snapshot-closure",
        "bound builtin": "snapshot-bound-builtin",
        "mutable defaults": "snapshot-mutable-default",
        "live generator": "snapshot-generator",
    }

    def test_runtime_rejections_have_static_twins(self):
        from repro.sim.engine import Engine
        from repro.sim.snapshot import SnapshotError, guard_world

        def make_cb(tag):
            def inner():
                return tag
            return inner

        def gen_events():
            yield 1

        def has_mutable_default(acc=[]):
            acc.append(1)

        eng = Engine()
        leak, sink = [], []
        eng.call_at(1000, lambda: leak.append(1))

        def nested():
            return len(leak)
        eng.call_at(2000, nested)
        eng.call_at(3000, make_cb("x"))
        eng.call_at(4000, sink.append)
        eng.call_in(5000, has_mutable_default)
        eng.call_at(6000, print, (x for x in leak))
        eng.call_at(7000, print, gen_events())

        with pytest.raises(SnapshotError) as exc:
            guard_world(eng)
        msg = str(exc.value)
        static = rules_of(lint_fixture("sim/bad_snapshot.py"))
        assert sum(static.values()) == 7
        for phrase, rule in self.PHRASE_TO_RULE.items():
            runtime_hits = msg.count(phrase)
            assert runtime_hits > 0, (phrase, msg)
            assert static[rule] == runtime_hits, (phrase, rule, msg)


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_valid_suppressions_silence(self):
        assert lint_fixture("sim/suppressed_ok.py") == []

    def test_broken_suppressions(self):
        got = rules_of(lint_fixture("sim/suppressed_bad.py"))
        assert got == {"bad-suppression": 2, "wall-clock": 1,
                       "unused-suppression": 1}

    def test_meta_rules_unsuppressable(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "sneaky.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "def f():\n"
            "    return 1  # vschedlint: disable=bad-suppression -- nope\n")
        got = rules_of(lint_paths([str(mod)]))
        assert got == {"bad-suppression": 1}


# ----------------------------------------------------------------------
# Blessings: the registries' counterpart of unused-suppression
# ----------------------------------------------------------------------
class TestBlessings:
    def test_every_blessing_silences_a_site(self, monkeypatch):
        file_reads = config.HIDDEN_INPUT_BLESSED
        state = config.PROCESS_STATE_BLESSED
        monkeypatch.setattr(config, "HIDDEN_INPUT_BLESSED", {})
        monkeypatch.setattr(config, "PROCESS_STATE_BLESSED", {})
        findings = lint_paths([str(REPO / "src" / "repro")])

        read_sites = {(f.modname, f.symbol) for f in findings
                      if f.rule == "hidden-file-input"}
        for modname, funcs in file_reads.items():
            for func in funcs:
                assert (modname, func) in read_sites, (modname, func)

        state_messages = [f.message for f in findings
                          if f.rule in ("cross-unit-state",
                                        "class-attr-state")]
        for modname, names in state.items():
            for name in names:
                named = (f"{name!r} of {modname}:",     # VSL601
                         f"{name} ({modname}):")        # VSL602
                assert any(form in msg for msg in state_messages
                           for form in named), (modname, name)


# ----------------------------------------------------------------------
# CLI and shipped-tree health
# ----------------------------------------------------------------------
def run_cli(*args):
    env = {"PYTHONPATH": f"{REPO / 'src'}:{TOOLS}", "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "vschedlint", *args],
        cwd=REPO, env=env, capture_output=True, text=True)


class TestCli:
    def test_json_output_on_violations(self):
        proc = run_cli("--format", "json",
                       str(FIXTURES / "sim" / "bad_determinism.py"))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["counts"]["active"] == 7
        assert payload["counts"]["by_family"] == {"determinism": 7}
        assert all(f["doc"] == f"docs/INTERNALS.md#{f['rule_id'].lower()}"
                   for f in payload["findings"])

    def test_text_output_carries_doc_anchors(self):
        proc = run_cli(str(FIXTURES / "sim" / "bad_snapshot.py"))
        assert "-> docs/INTERNALS.md#vsl401" in proc.stdout

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for slug in RULES:
            assert slug in proc.stdout


class TestDocAnchors:
    def test_every_rule_has_an_internals_anchor(self):
        # Findings render "-> docs/INTERNALS.md#vslNNN"; each target must
        # exist so the links never dangle.
        text = (REPO / "docs" / "INTERNALS.md").read_text()
        for slug, (rule_id, _family, _desc) in RULES.items():
            assert f'<a id="{rule_id.lower()}"></a>' in text, (slug, rule_id)


class TestShippedTree:
    def test_src_repro_is_clean(self):
        findings = lint_paths([str(REPO / "src" / "repro")])
        assert [f.render() for f in findings] == []

    def test_cli_exits_zero_on_shipped_tree(self):
        # The command CI gates on: exit 0 means zero findings.
        proc = run_cli("--format", "json", "src/repro", "tools", "tests")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["counts"]["active"] == 0
