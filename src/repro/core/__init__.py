"""Queryll core: the paper's contribution.

The core turns compiled bytecode of query methods into SQL:

1. :mod:`repro.core.tac` — the three-address intermediate representation
   (the analogue of Soot's Jimple).
2. :mod:`repro.core.cfg` — control-flow graph construction, dominators and
   single-entry/single-exit loop detection.
3. :mod:`repro.core.analysis` — for-each pattern recognition, side-effect
   checking, path enumeration, backward symbolic substitution and
   simplification.
4. :mod:`repro.core.expr` — the symbolic expression trees produced by the
   substitution step.
5. :mod:`repro.core.querytree` — interpretation of the symbolic expressions
   against the ORM mapping, producing a relational query tree.
6. :mod:`repro.core.sqlgen` — SQL text generation from query trees; the
   database's planner plans the SQL.
7. :mod:`repro.core.rewriter` / :mod:`repro.core.pipeline` — drivers that tie
   the stages together for a whole method or classfile.
"""

from __future__ import annotations

from repro.core.pipeline import QueryllPipeline, RewrittenQuery, analyze_method

__all__ = [
    "QueryllPipeline",
    "RewrittenQuery",
    "analyze_method",
]
