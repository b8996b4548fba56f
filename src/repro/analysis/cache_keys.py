"""Cache-key soundness checker.

Epoch-keyed functions (the plan cache, the hyper-plan memo, the Amoeba
candidate-cutpoint memo) are replayed whenever the key — which embeds
the owning tables' epochs — matches.  That is only sound if everything
mutable the function reads is *covered* by the epoch: changing it bumps
the epoch and therefore changes the key.  Two rules:

``cache-key-read``
    A function decorated ``@epoch_keyed(reads=(...))`` may not read a
    known mutable table/tree/DFS attribute outside its declared
    ``reads`` tuple.  The attribute list below is the closed set of
    partition-state-dependent accessors in this codebase; immutable
    attributes (schemas, configs, ids) are not tracked.

``cache-key-registration``
    The modules that own epoch-keyed caches must actually register
    their cached functions — a new cache added without a declaration
    escapes the read check, so the expected registrations are pinned
    here per module.
"""

from __future__ import annotations

import ast

from .framework import (
    AnalysisContext,
    Checker,
    SourceFile,
    Violation,
    epoch_keyed_decorator,
    iter_functions,
)

RULE_READ = "cache-key-read"
RULE_REGISTRATION = "cache-key-registration"

#: Attributes whose value depends on mutable partition state.  Reading
#: one inside an epoch-keyed function is sound only when declared.
MUTABLE_ATTRS = frozenset(
    {
        "lookup",
        "lookup_contains",
        "lookup_block",
        "non_empty_block_ids",
        "block_ids",
        "peek_block",
        "get_block",
        "get_blocks",
        "num_rows",
        "ranges",
        "range_of",
        "rows_under_tree",
        "total_rows",
        "tree_row_fractions",
        "sample",
        "epoch",
        "trees",
        "num_trees",
        "tree_of_block",
        "join_range_of_block",
        "delta_between",
        "columns",
        "num_blocks",
        "blocks_of_table",
        "total_bytes",
        "leaves",
        "leaf_bounds",
        "bottom_internal_nodes",
        "bottom_node_arrays",
    }
)

#: module -> qualnames that must carry ``@epoch_keyed`` there.
REQUIRED_REGISTRATIONS: dict[str, tuple[str, ...]] = {
    "repro.join.hyperjoin": ("plan_hyper_join", "HyperPlanCache.get_or_plan"),
    "repro.core.optimizer": ("Optimizer._relevant_blocks", "Optimizer._hyper_plan"),
    "repro.adaptive.amoeba": (
        "AmoebaAdaptor._node_cutpoints",
        "AmoebaAdaptor._node_sample_rows",
    ),
}


def check(source: SourceFile, context: AnalysisContext) -> list[Violation]:
    violations: list[Violation] = []
    registered: set[str] = set()
    for func, class_name in iter_functions(source.tree):
        reads = epoch_keyed_decorator(func)
        if reads is None:
            continue
        qualname = f"{class_name}.{func.name}" if class_name else func.name
        registered.add(qualname)
        declared = frozenset(reads)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in MUTABLE_ATTRS
                and node.attr not in declared
            ):
                violations.append(
                    Violation(
                        rule=RULE_READ,
                        path=source.path,
                        line=node.lineno,
                        message=(
                            f"epoch-keyed {qualname} reads mutable attribute "
                            f".{node.attr} not covered by its declared key"
                        ),
                        hint=(
                            f"add {node.attr!r} to @epoch_keyed(reads=...) if the "
                            "cache key's epoch covers it, or stop reading it"
                        ),
                    )
                )
    for qualname in REQUIRED_REGISTRATIONS.get(source.module, ()):
        if qualname not in registered:
            violations.append(
                Violation(
                    rule=RULE_REGISTRATION,
                    path=source.path,
                    line=1,
                    message=(
                        f"{source.module} must register {qualname} with "
                        "@epoch_keyed(reads=...)"
                    ),
                    hint="decorate the function so its reads are checkable",
                )
            )
    return violations


CHECKER = Checker(
    name="cache-keys",
    rules=(RULE_READ, RULE_REGISTRATION),
    check=check,
    descriptions={
        RULE_READ: (
            "@epoch_keyed functions read only the mutable state their "
            "declared key covers"
        ),
        RULE_REGISTRATION: (
            "modules with epoch-keyed caches register them for invalidation"
        ),
    },
)
