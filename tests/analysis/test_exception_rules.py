"""SIM3xx: exception hygiene fixtures."""


class TestSIM302BroadExcept:
    def test_flags_swallowed_exception(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except Exception:
                    return None
            """}, select={"SIM302"})
        assert [f.code for f in result.findings] == ["SIM302"]
        assert "crash-isolation" in result.findings[0].message

    def test_flags_base_exception_in_tuple(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except (ValueError, BaseException) as exc:
                    return exc
            """}, select={"SIM302"})
        assert [f.code for f in result.findings] == ["SIM302"]

    def test_cleanup_then_reraise_is_exempt(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import os

            def publish(tmp, final):
                try:
                    os.replace(tmp, final)
                except BaseException:
                    os.unlink(tmp)
                    raise
            """}, select={"SIM302"})
        assert result.findings == []

    def test_specific_exceptions_are_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except (ValueError, OSError):
                    return None
            """}, select={"SIM302"})
        assert result.findings == []


class TestSIM303KeyErrorForConfig:
    def test_flags_keyerror_in_src(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def lookup(table, model):
                if model not in table:
                    raise KeyError(model)
                return table[model]
            """}, select={"SIM303"})
        assert [f.code for f in result.findings] == ["SIM303"]
        assert "ConfigError" in result.findings[0].message

    def test_config_error_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            class ConfigError(ValueError):
                pass

            def lookup(table, model):
                if model not in table:
                    raise ConfigError(f"unknown model {model}")
                return table[model]
            """}, select={"SIM303"})
        assert result.findings == []

    def test_tests_may_raise_keyerror(self, lint_tree):
        result = lint_tree({"tests/test_x.py": """\
            def fake_lookup(model):
                raise KeyError(model)
            """}, select={"SIM303"})
        assert result.findings == []

    def test_reraising_existing_exception_is_fine(self, lint_tree):
        # `raise` with no operand (propagation) is not a KeyError raise.
        result = lint_tree({"src/repro/core/x.py": """\
            def lookup(table, model):
                try:
                    return table[model]
                except KeyError:
                    raise
            """}, select={"SIM303"})
        assert result.findings == []
