"""Documentation consistency: the docs reference things that exist."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    )
    def test_doc_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists()
        assert len(path.read_text()) > 2_000

    def test_design_confirms_the_paper(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper verified" in text
        assert "Middleware" in text


class TestReferencedFilesExist:
    def test_design_bench_targets_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.findall(r"`(benchmarks/[\w.]+\.py)`", text):
            assert (ROOT / match).exists(), match

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"`(\w+\.py)`", text):
            if (ROOT / "examples" / match).exists():
                continue
            # Not every backticked .py is an example; only check the
            # examples table rows.
        for row in re.findall(r"\| `(\w+\.py)` \|", text):
            assert (ROOT / "examples" / row).exists(), row

    def test_readme_bench_table_matches_files(self):
        text = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(test_fig\d+\w*)`", text):
            matches = list((ROOT / "benchmarks").glob(f"{name}*.py"))
            assert matches, name

    def test_design_module_map_matches_packages(self):
        """DESIGN §3 lists exactly the modules under ``src/repro``."""
        text = (ROOT / "DESIGN.md").read_text()
        section = text[text.index("## 3. System inventory"):]
        block = section[section.index("```\nsrc/repro/\n") + 4:]
        block = block[: block.index("```")]
        mapped = set()
        package = ""
        for line in block.splitlines()[1:]:
            entry = re.match(r"^( {2}| {4})(\w+/|\w+\.py)(\s|$)", line)
            if entry is None:
                continue
            indent, name = entry.group(1), entry.group(2)
            if name.endswith("/"):
                package = name
            else:
                mapped.add(name if indent == "  " else package + name)
        source = ROOT / "src" / "repro"
        modules = {
            path.relative_to(source).as_posix()
            for path in source.rglob("*.py")
            if path.name != "__init__.py"
        }
        assert sorted(mapped - modules) == [], "mapped but missing"
        assert sorted(modules - mapped) == [], "present but unmapped"

    def test_experiment_index_modules_resolve(self):
        """Each backticked dotted name in the Modules column of DESIGN §4's
        figure table is a ``repro`` module or a module attribute."""
        text = (ROOT / "DESIGN.md").read_text()
        section = text[text.index("## 4. Experiment index"):]
        section = section[: section.index("\n## 5.")]
        rows = [
            line.split("|")
            for line in section.splitlines()
            if line.startswith("| ") and line.count("|") == 6
        ]
        assert rows[0][4].strip() == "Modules"
        names = [
            name
            for row in rows[1:]
            for name in re.findall(r"`([\w.]+)`", row[4])
            if "." in name
        ]
        assert names
        unresolved = []
        for name in names:
            try:
                importlib.import_module(f"repro.{name}")
                continue
            except ModuleNotFoundError:
                pass
            module, _, attr = f"repro.{name}".rpartition(".")
            try:
                if hasattr(importlib.import_module(module), attr):
                    continue
            except ModuleNotFoundError:
                pass
            unresolved.append(name)
        assert unresolved == []

    def test_every_benchmark_is_indexed(self):
        """Each bench file appears in DESIGN.md's experiment index."""
        design = (ROOT / "DESIGN.md").read_text()
        for path in (ROOT / "benchmarks").glob("test_*.py"):
            assert path.name in design, path.name


class TestPublicSurfaceDocumented:
    def test_all_public_modules_have_docstrings(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"


class TestConfigSurface:
    def test_every_field_has_a_setter_row(self):
        """DESIGN section 5 lists every ``WaspConfig`` field with the
        production caller that sets it, or why it is a field without one."""
        from dataclasses import fields

        from repro.config import WaspConfig

        text = (ROOT / "DESIGN.md").read_text()
        section = text[text.index("## 5. Key design decisions"):]
        section = section[: section.index("## 6. ")]
        rows = dict(
            re.findall(r"^\| `(\w+)` \| [^|]+ \| (.+) \|$", section, re.M)
        )
        assert sorted(rows) == sorted(f.name for f in fields(WaspConfig))
        for name, setters in rows.items():
            paths = re.findall(r"`((?:src|benchmarks|examples)/[\w/.]+\.py)`",
                               setters)
            if not paths:
                assert setters.startswith("none: "), name
                continue
            for path in paths:
                source = ROOT / path
                assert source.exists(), path
                assert name in source.read_text(), (name, path)
