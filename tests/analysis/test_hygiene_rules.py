"""SIM4xx: model hygiene fixtures."""


class TestSIM401FrozenSpecs:
    def test_flags_unfrozen_plan_at_decorator_line(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            from dataclasses import dataclass


            @dataclass
            class SweepPlan:
                model: str
            """}, select={"SIM401"})
        assert [f.code for f in result.findings] == ["SIM401"]
        finding = result.findings[0]
        assert "SweepPlan" in finding.message
        assert finding.line == 4  # the @dataclass line, not `class`

    def test_flags_frozen_false(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            from dataclasses import dataclass


            @dataclass(frozen=False, eq=True)
            class WireSpec:
                width: int
            """}, select={"SIM401"})
        assert [f.code for f in result.findings] == ["SIM401"]

    def test_frozen_spec_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class WireSpec:
                width: int
            """}, select={"SIM401"})
        assert result.findings == []

    def test_worker_types_are_not_value_types(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            from dataclasses import dataclass, field


            @dataclass
            class Transfer:
                src: str
                hops: list = field(default_factory=list)
            """}, select={"SIM401"})
        assert result.findings == []

    def test_rule_is_src_only(self, lint_tree):
        result = lint_tree({"tests/test_x.py": """\
            from dataclasses import dataclass


            @dataclass
            class FakePlan:
                model: str
            """}, select={"SIM401"})
        assert result.findings == []


class TestSIM403FloatEquality:
    def test_flags_fractional_equality(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def check(ipc, delta):
                return ipc == 0.95 or delta != -0.5
            """}, select={"SIM403"})
        assert [f.code for f in result.findings] == ["SIM403", "SIM403"]
        assert "0.95" in result.findings[0].message

    def test_whole_valued_sentinels_are_allowed(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def check(util, weight):
                return util == 1.0 or weight == 0.0
            """}, select={"SIM403"})
        assert result.findings == []

    def test_ordering_comparisons_are_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def check(util):
                return 0.25 < util <= 0.75
            """}, select={"SIM403"})
        assert result.findings == []

    def test_rule_is_src_only(self, lint_tree):
        result = lint_tree({"tests/test_x.py": """\
            def test_exact():
                assert 0.5 == 0.5
            """}, select={"SIM403"})
        assert result.findings == []
