"""Inline suppressions, ``select`` filtering and the pseudo codes."""

import tokenize

from repro.analysis import lint_paths


class TestInlineSuppression:
    def test_same_line_suppression(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return random.random()  # simlint: disable=SIM101
            """}, select={"SIM101"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_standalone_comment_covers_next_code_line(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                # simlint: disable=SIM101
                return random.random()
            """}, select={"SIM101"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_family_wildcard(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except Exception:  # simlint: disable=SIM3xx
                    return None
            """}, select={"SIM302"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_all(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return random.random()  # simlint: disable=all
            """})
        assert result.findings == []
        assert result.suppressed >= 1

    def test_non_matching_code_still_reports(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return random.random()  # simlint: disable=SIM102
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]
        assert result.suppressed == 0

    def test_suppression_on_other_line_has_no_effect(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def seed_it():
                random.seed(0)  # simlint: disable=SIM101

            def draw():
                return random.random()
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]
        assert result.suppressed == 1

    def test_comma_separated_codes(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random
            import time

            def draw():
                # simlint: disable=SIM101, SIM102
                return random.random() + time.time()
            """}, select={"SIM101", "SIM102"})
        assert result.findings == []
        assert result.suppressed == 2


class TestWildcardScopes:
    """SIM5xx (family) vs SIMxxx (everything) vs all."""

    def test_sim5xx_covers_the_seedflow_family(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream():
                return random.Random(42)  # simlint: disable=SIM5xx
            """}, select={"SIM501"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_sim5xx_does_not_leak_into_other_families(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return random.random()  # simlint: disable=SIM5xx
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]
        assert result.suppressed == 0

    def test_simxxx_covers_every_family(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return random.random()  # simlint: disable=SIMxxx

            def make_stream():
                return random.Random(42)  # simlint: disable=SIMxxx
            """}, select={"SIM101", "SIM501"})
        assert result.findings == []
        assert result.suppressed == 2

    def test_project_rule_findings_honor_inline_disables(self,
                                                         lint_tree):
        # SIM501 is computed in the whole-program pass, long after the
        # per-file suppression scan; the engine must still apply the
        # line's disable comment to it.
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream():
                return random.Random(42)  # simlint: disable=SIM501
            """}, select={"SIM501"})
        assert result.findings == []
        assert result.suppressed == 1


class TestMultiLineStatements:
    def test_comment_inside_multiline_expression_covers_next_line(
            self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return (
                    # simlint: disable=SIM101
                    random.random()
                )
            """}, select={"SIM101"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_trailing_comment_on_last_line_misses_the_finding(
            self, lint_tree):
        # The disable rides the closing-paren line; the finding is
        # anchored at the call two lines up, so it must still report.
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                value = (
                    random.random()
                )  # simlint: disable=SIM101
                return value
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]
        assert result.suppressed == 0


class TestCRLFSources:
    def _write_crlf(self, tmp_path, rel, lines):
        (tmp_path / "pyproject.toml").write_text(
            "[project]\nname = 'fixture'\n")
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
        return [tmp_path / rel.split("/")[0]]

    def test_crlf_disable_comment_still_suppresses(self, tmp_path):
        tops = self._write_crlf(tmp_path, "src/repro/core/x.py", [
            "import random",
            "",
            "def draw():",
            "    return random.random()  # simlint: disable=SIM101",
        ])
        result = lint_paths(tops, root=tmp_path, select={"SIM101"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_crlf_source_lints_without_pseudo_codes(self, tmp_path):
        tops = self._write_crlf(tmp_path, "src/repro/core/x.py", [
            "import random",
            "",
            "def draw():",
            "    return random.random()",
        ])
        result = lint_paths(tops, root=tmp_path)
        codes = [f.code for f in result.findings]
        assert "SIM000" not in codes and "SIM002" not in codes
        assert "SIM101" in codes


#: One per-file finding (SIM101) and one whole-program finding (SIM501)
#: in the same file, plus a clean neighbour.
TWO_FAMILIES = {
    "src/repro/core/a.py": """\
        import random

        def roll():
            return random.Random(42)

        def draw():
            return random.random()
        """,
    "src/repro/core/b.py": """\
        def double(n):
            return n * 2
        """,
}


class TestSelectFiltering:
    def test_select_filters_reported_findings(self, lint_tree):
        # Every rule runs; select only narrows what is reported.
        assert lint_tree(TWO_FAMILIES, select={"SIM104"}).findings == []
        result = lint_tree(TWO_FAMILIES, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]

    def test_findings_sort_by_path_line_col_code(self, lint_tree):
        files = dict(TWO_FAMILIES)
        files["src/repro/service/x.py"] = """\
            import time

            async def throttle(delay):
                time.sleep(delay)
            """
        result = lint_tree(files)
        keys = [(f.path, f.line, f.col, f.code) for f in result.findings]
        assert keys == sorted(keys)
        assert {"SIM101", "SIM501", "SIM801"} <= {
            f.code for f in result.findings}
        # A second pass over the same tree reports the same findings.
        assert lint_tree(files).findings == result.findings


class TestSuppressionErrorPseudoCode:
    def test_tokenize_failure_reports_sim002(self, lint_tree,
                                             monkeypatch):
        def boom(readline):
            raise tokenize.TokenError("EOF in multi-line statement",
                                      (1, 0))

        monkeypatch.setattr(tokenize, "generate_tokens", boom)
        result = lint_tree({"src/repro/core/x.py": """\
            def fine():
                return 1
            """})
        assert [f.code for f in result.findings] == ["SIM002"]
        assert "TokenError" in result.findings[0].message

    def test_sim002_bypasses_select(self, lint_tree, monkeypatch):
        monkeypatch.setattr(
            tokenize, "generate_tokens",
            lambda readline: (_ for _ in ()).throw(
                tokenize.TokenError("boom", (1, 0))))
        result = lint_tree({"src/repro/core/x.py": "X = 1\n"},
                           select={"SIM104"})
        assert [f.code for f in result.findings] == ["SIM002"]
