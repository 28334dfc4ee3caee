"""vschedlint: rule families, suppression/baseline semantics, tree health.

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

from vschedlint import baseline as baseline_mod  # noqa: E402
from vschedlint.checker import collect_records, lint_paths  # noqa: E402
from vschedlint.findings import RULES, finalize_fingerprints  # noqa: E402
from vschedlint.index import IndexCache  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures" / "vschedlint" / "repro"
SHIPPED_BASELINE = TOOLS / "vschedlint" / "baseline.json"


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
                                      "class-attr-state": 2}
        assert {f.symbol for f in findings} == {
            "memoize", "trace", "bump_runs",
            "WarmPool.mark_reuse", "WarmPool.reset"}

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
# Project index cache
# ----------------------------------------------------------------------
class TestIndexCache:
    def _write(self, path, body="def f():\n    return 1\n"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)

    def test_second_run_hits(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "mod.py"
        self._write(mod)
        cache_file = tmp_path / "cache.json"

        first = IndexCache(cache_file)
        collect_records([str(mod)], first)
        assert (first.hits, first.misses) == (0, 1)

        second = IndexCache(cache_file)
        records = collect_records([str(mod)], second)
        assert (second.hits, second.misses) == (1, 0)
        assert records[0].modname == "repro.sim.mod"

    def test_edit_misses(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "mod.py"
        self._write(mod)
        cache_file = tmp_path / "cache.json"
        collect_records([str(mod)], IndexCache(cache_file))

        self._write(mod, "def g():\n    return 2\n")
        cache = IndexCache(cache_file)
        records = collect_records([str(mod)], cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert "g" in records[0].functions

    def test_rename_and_delete_prune(self, tmp_path):
        old = tmp_path / "repro" / "sim" / "old.py"
        self._write(old)
        cache_file = tmp_path / "cache.json"
        collect_records([str(old)], IndexCache(cache_file))

        new = tmp_path / "repro" / "sim" / "new.py"
        old.rename(new)
        cache = IndexCache(cache_file)
        collect_records([str(new)], cache)
        assert (cache.hits, cache.misses) == (0, 1)  # new path, fresh parse
        assert str(old) not in cache._entries        # stale entry pruned
        assert str(new) in cache._entries

    def test_cached_records_reproduce_findings(self, tmp_path):
        src = (FIXTURES / "sim" / "bad_determinism.py").read_text()
        mod = tmp_path / "repro" / "sim" / "mod.py"
        self._write(mod, src)
        cache_file = tmp_path / "cache.json"

        cold = lint_paths([str(mod)], IndexCache(cache_file))
        warm_cache = IndexCache(cache_file)
        warm = lint_paths([str(mod)], warm_cache)
        assert warm_cache.hits == 1
        assert [f.render() for f in warm] == [f.render() for f in cold]

    def test_corrupt_cache_ignored(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "mod.py"
        self._write(mod)
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        cache = IndexCache(cache_file)
        collect_records([str(mod)], cache)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_linter_edit_invalidates_everything(self, tmp_path):
        mod = tmp_path / "repro" / "sim" / "mod.py"
        self._write(mod)
        cache_file = tmp_path / "cache.json"
        collect_records([str(mod)], IndexCache(cache_file))

        stale = json.loads(cache_file.read_text())
        stale["tool"] = "0" * 64  # as if the linter's own sources changed
        cache_file.write_text(json.dumps(stale))
        cache = IndexCache(cache_file)
        collect_records([str(mod)], cache)
        assert (cache.hits, cache.misses) == (0, 1)


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
# Baseline semantics
# ----------------------------------------------------------------------
class TestBaseline:
    def test_roundtrip_marks_baselined(self, tmp_path):
        findings = lint_fixture("sim/bad_determinism.py")
        assert findings
        bl = tmp_path / "baseline.json"
        n = baseline_mod.write_baseline(findings, bl)
        assert n == len(findings)

        fresh = lint_fixture("sim/bad_determinism.py")
        entries = baseline_mod.load_baseline(bl)
        baseline_mod.apply_baseline(fresh, entries, str(bl))
        assert all(f.baselined for f in fresh)

    def test_stale_entry_reported(self, tmp_path):
        findings = lint_fixture("sim/bad_determinism.py")
        bl = tmp_path / "baseline.json"
        baseline_mod.write_baseline(findings, bl)

        clean = lint_fixture("sim/clean_determinism.py")
        entries = baseline_mod.load_baseline(bl)
        baseline_mod.apply_baseline(clean, entries, str(bl))
        got = rules_of(clean)
        assert got["stale-baseline"] == len(findings)

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        src = (FIXTURES / "sim" / "bad_determinism.py").read_text()
        a = tmp_path / "a" / "repro" / "sim" / "mod.py"
        b = tmp_path / "b" / "repro" / "sim" / "mod.py"
        a.parent.mkdir(parents=True)
        b.parent.mkdir(parents=True)
        a.write_text(src)
        b.write_text("# shifted\n" * 7 + src)
        fps_a = [f.fingerprint for f in lint_paths([str(a)])]
        fps_b = [f.fingerprint for f in lint_paths([str(b)])]
        assert fps_a and fps_a == fps_b


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
        proc = run_cli("--format", "json", "--no-baseline",
                       str(FIXTURES / "sim" / "bad_determinism.py"))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["counts"]["active"] == 7
        assert payload["counts"]["by_family"] == {"determinism": 7}
        assert all(f["fingerprint"] for f in payload["findings"])

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for slug in RULES:
            assert slug in proc.stdout


class TestCliV2:
    def test_sarif_output(self):
        proc = run_cli("--format", "sarif", "--no-baseline",
                       "--no-index-cache",
                       str(FIXTURES / "sim" / "bad_snapshot.py"))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        results = run["results"]
        assert len(results) == 7
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        for res in results:
            assert res["ruleId"] in rules
            assert res["partialFingerprints"]["vschedlint/v1"]
        assert rules["VSL401"]["helpUri"].endswith("#vsl401")

    def test_jsonl_output(self):
        proc = run_cli("--format", "jsonl", "--no-baseline",
                       "--no-index-cache",
                       str(FIXTURES / "sim" / "bad_snapshot.py"))
        assert proc.returncode == 1
        lines = [json.loads(ln) for ln in proc.stdout.splitlines()
                 if ln.strip()]
        assert len(lines) == 7
        assert all(ln["fingerprint"] and ln["doc"] for ln in lines)

    def test_text_output_carries_doc_anchors(self):
        proc = run_cli("--no-baseline", "--no-index-cache",
                       str(FIXTURES / "sim" / "bad_snapshot.py"))
        assert "-> docs/INTERNALS.md#vsl401" in proc.stdout

    def test_write_baseline_is_shrink_only(self, tmp_path):
        bl = tmp_path / "bl.json"
        bad = str(FIXTURES / "sim" / "bad_determinism.py")
        clean = str(FIXTURES / "sim" / "clean_determinism.py")

        # A fresh baseline may be seeded; shrinking it later is fine...
        proc = run_cli("--write-baseline", "--baseline", str(bl),
                       "--no-index-cache", bad)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("--write-baseline", "--baseline", str(bl),
                       "--no-index-cache", clean)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(bl.read_text())["entries"] == {}

        # ...but growing an existing baseline is refused.
        proc = run_cli("--write-baseline", "--baseline", str(bl),
                       "--no-index-cache", bad)
        assert proc.returncode == 2
        assert "grow" in proc.stderr

    def test_stats_reports_cache_reuse(self, tmp_path):
        cache = tmp_path / "cache.json"
        target = str(FIXTURES / "sim" / "clean_determinism.py")
        run_cli("--no-baseline", "--index-cache", str(cache), target)
        proc = run_cli("--no-baseline", "--stats",
                       "--index-cache", str(cache), target)
        assert "1 hit(s), 0 miss(es)" in proc.stderr


class TestChangedMode:
    def _make_repo(self, tmp_path):
        repo = tmp_path / "work"
        (repo / "repro" / "sim").mkdir(parents=True)
        steady = repo / "repro" / "sim" / "steady.py"
        steady.write_text("import time\n\n\ndef f():\n"
                          "    return time.time()\n")
        git = ["git", "-c", "user.email=t@t", "-c", "user.name=t"]
        subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
        subprocess.run([*git, "add", "."], cwd=repo, check=True)
        subprocess.run([*git, "commit", "-qm", "seed"], cwd=repo,
                       check=True)
        return repo

    def _run(self, repo, *args):
        env = {"PYTHONPATH": f"{REPO / 'src'}:{TOOLS}",
               "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "vschedlint", "--no-baseline",
             "--no-index-cache", *args],
            cwd=repo, env=env, capture_output=True, text=True)

    def test_only_changed_files_reported(self, tmp_path):
        repo = self._make_repo(tmp_path)
        fresh = repo / "repro" / "sim" / "fresh.py"
        fresh.write_text("import time\n\n\ndef g():\n"
                         "    return time.time()\n")

        full = self._run(repo, "--format", "json", "repro")
        assert len(json.loads(full.stdout)["findings"]) == 2

        part = self._run(repo, "--format", "json", "repro", "--changed")
        findings = json.loads(part.stdout)["findings"]
        assert part.returncode == 1
        assert [f["path"] for f in findings] == ["repro/sim/fresh.py"]

    def test_changed_with_nothing_touched_is_clean(self, tmp_path):
        repo = self._make_repo(tmp_path)
        proc = self._run(repo, "repro", "--changed")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_changed_outside_git_fails_loudly(self, tmp_path):
        plain = tmp_path / "plain" / "repro" / "sim"
        plain.mkdir(parents=True)
        (plain / "m.py").write_text("def f():\n    return 1\n")
        proc = self._run(tmp_path / "plain", "repro", "--changed")
        assert proc.returncode == 2
        assert "git" in proc.stderr


class TestDocAnchors:
    def test_every_rule_has_an_internals_anchor(self):
        # Findings render "-> docs/INTERNALS.md#vslNNN"; each target must
        # exist so the links never dangle.
        text = (REPO / "docs" / "INTERNALS.md").read_text()
        for slug, (rule_id, _family, _desc) in RULES.items():
            assert f'<a id="{rule_id.lower()}"></a>' in text, (slug, rule_id)


class TestShippedTree:
    def test_src_repro_is_clean_modulo_baseline(self):
        findings = lint_paths([str(REPO / "src" / "repro")])
        entries = baseline_mod.load_baseline(SHIPPED_BASELINE)
        baseline_mod.apply_baseline(findings, entries,
                                    str(SHIPPED_BASELINE))
        active = [f.render() for f in findings if not f.baselined]
        assert active == []

    def test_cli_exits_zero_on_shipped_tree(self):
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout or "baselined" in proc.stdout
