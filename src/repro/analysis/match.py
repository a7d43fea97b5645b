"""Match pass: prove every abstract operator has an implementation (IRES01x).

For each abstract operator in scope, the pass replays the library's
abstract→materialized tree match.  When nothing matches it reports
``IRES010`` and — crucially — explains *why* each near-miss failed, naming
the first dotted key where the candidate's tree diverges from the abstract
requirements (the planner would otherwise just say "no plan found").
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.passes import LintContext
from repro.core.library import INDEX_ATTRIBUTE
from repro.core.metadata import WILDCARD, MetadataTree
from repro.core.operators import MaterializedOperator

#: how many near-misses to explain per unmatched abstract operator
MAX_NEAR_MISSES = 5


def first_divergence(required: MetadataTree, provided: MetadataTree,
                     prefix: str = "Constraints") -> str | None:
    """The first dotted key where ``provided`` fails ``required.matches``.

    Formats :meth:`MetadataTree.divergence` as ``"key: required X, found
    Y"`` for the earliest divergence — or ``None`` when the trees match.
    """
    path = required.divergence(provided)
    if path is None:
        return None
    key = ".".join((prefix, *path))
    dotted = ".".join(path)
    want = required.get(dotted) if path else required.value
    found = provided.node(dotted) if path else provided
    if found is None:
        return f"{key}: required but missing"
    if not found.is_leaf:
        return f"{key}: required leaf {want!r}, found a subtree"
    return f"{key}: required {want!r}, found {found.value!r}"


def explain_near_miss(abstract_metadata: MetadataTree,
                      candidate: MaterializedOperator) -> str:
    """Why one candidate failed the tree match, as ``name (reason)``."""
    required = abstract_metadata.node("Constraints")
    provided = candidate.metadata.node("Constraints")
    if required is None:
        return f"{candidate.name} (matches)"  # cannot happen for a miss
    if provided is None:
        return f"{candidate.name} (Constraints: required but missing)"
    reason = first_divergence(required, provided)
    return f"{candidate.name} ({reason or 'matches'})"


class MatchPass:
    """Abstract→materialized coverage, with near-miss explanations."""

    name = "match"

    def run(self, ctx: LintContext, out: DiagnosticCollector) -> None:
        """Check library coverage and engine deployment."""
        for name, abstract in sorted(ctx.scoped_abstract_operators().items()):
            self._check_abstract(ctx, name, out)
        if ctx.engines is not None:
            for operator in sorted(ctx.library, key=lambda op: op.name):
                engine = operator.engine
                if engine is not None and engine != "move" \
                        and engine not in ctx.engines:
                    out.report(
                        "IRES011",
                        f"engine {engine!r} is not deployed "
                        f"(deployed: {', '.join(sorted(ctx.engines))})",
                        artifact=f"operator:{operator.name}",
                        location=ctx.location("operator", operator.name,
                                              key="Constraints.Engine"),
                        hint="fix the engine name or deploy the engine",
                    )

    def _check_abstract(self, ctx: LintContext, name: str,
                        out: DiagnosticCollector) -> None:
        abstract = ctx.scoped_abstract_operators()[name]
        artifact = f"abstract:{name}"
        algorithm = abstract.metadata.get(INDEX_ATTRIBUTE)
        if algorithm == WILDCARD:
            out.report(
                "IRES012",
                f"{INDEX_ATTRIBUTE}=* cannot be pruned by the library index "
                f"(every lookup scans all {len(ctx.library)} operators)",
                artifact=artifact,
                location=ctx.location("abstract", name, key=INDEX_ATTRIBUTE),
                hint="name a concrete algorithm when composing workflows",
            )
        pool = ctx.library.candidates(abstract)
        matches = [op for op in pool if op.matches_abstract(abstract)]
        if matches:
            return
        if not pool:
            message = (f"no materialized operator implements {name!r}: "
                       f"no library operator advertises "
                       f"{INDEX_ATTRIBUTE}={algorithm!r}")
            hint = "register an implementation or fix the algorithm name"
        else:
            near = [explain_near_miss(abstract.metadata, op)
                    for op in pool[:MAX_NEAR_MISSES]]
            more = len(pool) - len(near)
            listing = "; ".join(near) + (f"; and {more} more" if more > 0 else "")
            message = (f"no materialized operator implements {name!r}; "
                       f"near-misses: {listing}")
            hint = "align the first divergent key on either side"
        out.report("IRES010", message, artifact=artifact,
                   location=ctx.location("abstract", name), hint=hint)
