"""Documentation consistency: the docs must track the code.

These tests keep DESIGN.md's experiment index, the experiment registry,
the benchmark directory and the examples honest with each other, so the
reproduction claims stay navigable as the library evolves.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments import experiment_ids

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def design_text() -> str:
    return (REPO / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def readme_text() -> str:
    return (REPO / "README.md").read_text()


class TestExperimentCoverage:
    def test_every_experiment_has_a_benchmark(self):
        """``benchmarks/bench_paper.py`` runs every registered id but the
        one it names, and holds no check for an id the registry lost."""
        path = REPO / "benchmarks" / "bench_paper.py"
        spec = importlib.util.spec_from_file_location("bench_paper", path)
        bench_paper = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_paper)
        (mark,) = bench_paper.test_paper.pytestmark
        # ``concepts`` is illustrative: it has no finding to check.
        assert mark.args == ("experiment_id", [i for i in experiment_ids() if i != "concepts"])
        stale = set(bench_paper.CHECKS) - set(experiment_ids())
        assert not stale, f"checks for unregistered experiments: {sorted(stale)}"

    def test_paper_figures_all_registered(self):
        # The evaluation section's artifacts (DESIGN.md section 4).
        expected = {
            "fig05", "fig07", "fig08", "fig09", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig16", "fig17", "fig18",
            "fig19", "fig20", "table02", "table03",
        }
        assert expected.issubset(set(experiment_ids()))

    def test_design_mentions_every_paper_experiment(self, design_text):
        for experiment_id in experiment_ids():
            if experiment_id.startswith(("fig", "table")):
                assert experiment_id in design_text, (
                    f"DESIGN.md does not mention {experiment_id}"
                )


class TestExamplesAndDocs:
    def test_examples_exist_and_are_documented(self, readme_text):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for example in examples:
            assert example.name in readme_text, (
                f"README.md does not list {example.name}"
            )

    def test_quickstart_exists(self):
        assert (REPO / "examples" / "quickstart.py").exists()

    def test_doc_guides_exist(self):
        for name in (
            "models.md",
            "engines.md",
            "datasets.md",
            "extending.md",
            "api.md",
            "durability.md",
        ):
            assert (REPO / "docs" / name).exists()

    def test_required_top_level_docs(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO / name
            assert path.exists()
            assert len(path.read_text()) > 1_000

    def test_design_confirms_paper_match(self, design_text):
        # The task requires an explicit paper-match statement up top.
        assert "Paper match confirmation" in design_text

    def test_engine_table_of_engines_md_is_the_engine_table(self):
        """docs/engines.md prints the table ``python -m repro engines``
        prints: same rows, same cells, same order."""
        from repro.lsm.policies import engine_compositions

        text = (REPO / "docs" / "engines.md").read_text()
        section = text.split("## The engine table")[1].split("\n## ")[0]
        header, _, *body = [
            [cell.strip().replace("\\|", "|") for cell in line.strip("|").split(" | ")]
            for line in section.splitlines()
            if line.startswith("|")
        ]
        assert [dict(zip(header, row)) for row in body] == engine_compositions()

    def test_command_tables_are_one_table_of_the_command_tree(self, readme_text):
        """README.md and docs/api.md print the same command table, and its
        rows name exactly the commands of the tree, ``<id>`` beside
        ``all``: a deleted command cannot stay documented."""
        from repro.cli import _build_parser

        def command_rows(text):
            section = text.split("| command | what it does |\n|---|---|\n")[1]
            return section.split("\n\n")[0].splitlines()

        rows = command_rows(readme_text)
        assert rows == command_rows((REPO / "docs" / "api.md").read_text())
        named = [re.findall(r"`([^`\s]+)[^`]*`", row.split(" | ")[0]) for row in rows]
        assert ["<id>", "all"] in named
        assert sorted(name for row in named for name in row) == sorted(
            [*_build_parser()[1].choices, "<id>"]
        )

    def test_api_tables_name_only_names_that_exist(self):
        """In every docs/api.md section whose heading names a module
        (``## Queries (`repro.query`)``), the identifier leading each
        backticked span of a table row's first cell is an attribute of
        that module or of ``repro``; dotted cells
        (``snapshot.read_plan``) are skipped.  A deleted name cannot
        stay documented."""
        import importlib

        import repro

        text = (REPO / "docs" / "api.md").read_text()
        sections = re.findall(
            r"^## [^\n]*\(`(repro[\w.]*)`\)\n(.*?)(?=^## |\Z)", text, re.M | re.S
        )
        assert {module for module, _ in sections} >= {
            "repro.lsm", "repro.query", "repro.workloads",
        }
        for module_name, body in sections:
            module = importlib.import_module(module_name)
            for row in re.findall(r"^\|(.*?) \|", body, re.M):
                for name in re.findall(r"`([A-Za-z_]\w*)(?![\w.])", row):
                    assert hasattr(module, name) or hasattr(repro, name), (
                        f"docs/api.md ({module_name}) lists {name!r}"
                    )

    def test_python_examples_pass_only_options_that_exist(self):
        """Every keyword a ```` ```python ```` block of docs/*.md or
        README.md passes to ``LsmConfig(...)``, ``.with_stability(...)``,
        ``FaultPlan(...)``, ``ShardRouter(...)`` or ``compose_engine(...)``
        is a parameter of that callable (a block that does not parse is
        skipped).  A removed option cannot stay documented."""
        import ast
        import inspect

        from repro import FaultPlan, LsmConfig
        from repro.lsm.policies import compose_engine
        from repro.serving import ShardRouter

        def takes(func):
            return {
                name for name, param in inspect.signature(func).parameters.items()
                if param.kind is not param.VAR_KEYWORD
            }

        options = {
            "LsmConfig": takes(LsmConfig),
            "with_stability": set(LsmConfig._STABILITY_FIELDS),
            "FaultPlan": takes(FaultPlan),
            "ShardRouter": takes(ShardRouter),
            "compose_engine": takes(compose_engine),
        }
        unknown, checked = [], 0
        for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
            for block in re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S):
                try:
                    tree = ast.parse(block)
                except SyntaxError:
                    continue
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name not in options:
                        continue
                    checked += 1
                    unknown += [
                        f"{path.name}: {name}({keyword.arg}=...)"
                        for keyword in node.keywords
                        if keyword.arg is not None and keyword.arg not in options[name]
                    ]
        assert checked > 0
        assert not unknown, "documented options that do not exist:\n" + "\n".join(unknown)

    def test_docs_cite_roadmap_items_by_title(self):
        """ROADMAP.md renumbers its items at every re-anchor, so a doc
        that cites ``ROADMAP item 6`` or ``ROADMAP 5(a)`` soon points at
        another item; docs cite an item by its title instead."""
        pattern = re.compile(r"ROADMAP(?: item)? \d+")
        stale = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted((REPO / "docs").glob("*.md"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert not stale, "numbered ROADMAP references:\n" + "\n".join(stale)
