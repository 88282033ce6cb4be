"""Cache-key hygiene: result payloads have one encoder (``KEY002``).

:func:`repro.core.parallel.cache_key` treats a cache hit as *exactly as
trustworthy as a fresh measurement*, and the packed store dedups records
by their bytes.  Both hold only while every byte encoding of a run comes
from the one encoder in :mod:`repro.core.persistence`; a second
serialization path would split one measurement into two "conflicting"
payloads.  KEY002 flags such a path anywhere in the tree, including on code
paths no test runs.

Which ``BenchmarkConfig`` fields reach a key is no lint rule:
``cache_key`` reads them from :data:`repro.core.parallel.CONFIG_KEY_OVERRIDES`,
and ``TestKeyClassification`` in ``tests/test_parallel.py`` checks the keys
themselves.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.base import Rule, register_rule
from repro.lint.config import LintConfig
from repro.lint.model import Finding, ProjectIndex, _dotted_tail, parent_of

#: The module allowed to encode result documents, and its encoder functions.
CANONICAL_MODULE_SUFFIX = "core/persistence.py"
RESULT_ENCODERS = ("run_result_to_dict",)
WRAP_FUNCTION = "_wrap"
SERIALIZERS = ("dump", "dumps")


def _enclosing_serializer_call(node: ast.AST) -> Optional[ast.Call]:
    """The nearest ancestor ``*.dump(s)(...)`` call of ``node``, if any."""
    current = parent_of(node)
    while current is not None:
        if isinstance(current, ast.Call) and _dotted_tail(current.func) in SERIALIZERS:
            return current
        current = parent_of(current)
    return None


@register_rule
class CanonicalEncoderRule(Rule):
    """Result payloads are encoded by ``core/persistence`` alone.

    The packed store's dedup/conflict rule (and ``explain``'s bit-identity
    check) only hold if every byte encoding of a run is produced by *one*
    encoder -- ``canonical_run_payload`` / ``save_run_result`` in
    :mod:`repro.core.persistence`.  A second serialization path (calling
    ``json.dumps`` on ``run_result_to_dict(...)`` output directly, or
    reaching for the private ``_wrap``) can differ in separators, key order
    or wrapping and will split one measurement into two
    "conflicting" payloads.  KEY002 flags both patterns anywhere outside
    the persistence module itself.
    """

    rule_id = "KEY002"
    contract = (
        "cache/result payloads are serialized only by the canonical encoder "
        "in repro.core.persistence, never re-encoded ad hoc"
    )

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        for module in index.modules:
            if module.rel.endswith(CANONICAL_MODULE_SUFFIX):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                tail = _dotted_tail(node.func)
                if tail == WRAP_FUNCTION and isinstance(
                    node.func, (ast.Name, ast.Attribute)
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        tail,
                        "calls the persistence layer's private _wrap(): result "
                        "documents must be produced by its public encoders",
                        hint="use canonical_run_payload/save_run_result "
                        "from repro.core.persistence",
                    )
                elif tail in RESULT_ENCODERS:
                    serializer = _enclosing_serializer_call(node)
                    if serializer is None:
                        continue  # in-memory use (e.g. dict equality) is fine
                    yield self.finding(
                        module,
                        node.lineno,
                        tail,
                        f"serializes {tail}() output with "
                        f"{_dotted_tail(serializer.func)}() instead of the "
                        "canonical encoder, so the bytes can drift from every "
                        "other copy of the same measurement",
                        hint="encode through canonical_run_payload/save_run_result "
                        "in repro.core.persistence; byte-level dedup and "
                        "bit-identity checks depend on a single encoder",
                    )
