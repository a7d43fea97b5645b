"""Model-readiness pass: will the planner's estimates mean anything? (IRES03x)

When the platform plans from trained models (``estimator="models"``), an
operator pair with too few profiler samples silently falls back to default
cost estimates — plans "work" but optimize garbage.  This pass surfaces
that before planning.  With the oracle estimator the pass is a no-op:
ground-truth estimates need no training.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.passes import LintContext


class ModelReadinessPass:
    """Check profiler-sample and trained-model coverage per operator pair."""

    name = "models"

    def run(self, ctx: LintContext, out: DiagnosticCollector) -> None:
        """Warn on untrained/undersampled pairs the workflows would use."""
        modeler = ctx.modeler
        if modeler is None or not ctx.model_backed:
            return
        pairs: dict[tuple[str, str], str] = {}
        for name, abstract in sorted(ctx.scoped_abstract_operators().items()):
            for operator in ctx.library.candidates(abstract):
                if not operator.matches_abstract(abstract):
                    continue
                algorithm, engine = operator.algorithm, operator.engine
                if algorithm is None or engine is None:
                    continue  # missing keys are the schema pass's finding
                pairs.setdefault((algorithm, engine), operator.name)
        for (algorithm, engine), op_name in sorted(pairs.items()):
            artifact = f"operator:{op_name}"
            samples = modeler.sample_count(algorithm, engine)
            if samples < modeler.min_samples:
                out.report(
                    "IRES030",
                    f"{algorithm}@{engine} has {samples} profiler sample(s), "
                    f"fewer than the modeler's minimum {modeler.min_samples} "
                    "— planning falls back to default estimates",
                    artifact=artifact,
                    location=ctx.location("operator", op_name),
                    hint=f"profile the operator: "
                         f"ProfileSpec({algorithm!r}, {engine!r})",
                )
            elif modeler.fitted(algorithm, engine) is None:  # no CV fit
                out.report(
                    "IRES031",
                    f"{algorithm}@{engine} has {samples} sample(s) but no "
                    "trained model yet",
                    artifact=artifact,
                    location=ctx.location("operator", op_name),
                    hint=f"call modeler.train({algorithm!r}, {engine!r})",
                )
