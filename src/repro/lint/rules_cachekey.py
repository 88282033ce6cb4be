"""Cache-key hygiene: every ``BenchmarkConfig`` field has decided semantics.

:func:`repro.core.parallel.cache_key` treats a cache hit as *exactly as
trustworthy as a fresh measurement*, which is only sound if every
configuration field that can change a measurement reaches the hashed
payload.  The failure mode is additive: someone grows ``BenchmarkConfig`` by
a field, the canonicaliser picks it up automatically -- unless they also
copy the normalise/strip pattern for it, in which case nothing checks that
the choice was deliberate.  KEY001 makes the choice explicit: each field
must be classified in ``lint.toml`` (``[rules.cache-key]``) into exactly one
bucket, and the classification must agree with what ``cache_key()``'s code
actually does:

* ``keyed`` -- hashed into the payload untouched (physics inputs);
* ``normalized`` -- canonicalised away via ``replace(config, field=...)``
  (``seed``, ``repetitions``: the key identifies the *cell*, not the rep);
* ``stripped`` -- popped from the payload (``trace`` is observability, not
  physics; ``clients`` is re-keyed at top level only when > 1 to keep old
  single-client keys valid).

An unclassified field, a stale classification, or a mismatch between the
documented bucket and the code is each a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.base import Rule, register_rule
from repro.lint.config import LintConfig
from repro.lint.model import (
    ClassInfo,
    Finding,
    ModuleInfo,
    ProjectIndex,
    _dotted_tail,
    parent_of,
)

#: The dataclass whose fields the rule audits and the function that keys it.
CONFIG_CLASS = "BenchmarkConfig"
KEY_FUNCTION = "cache_key"


def _find_function(
    index: ProjectIndex, name: str
) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
    matches: List[Tuple[ModuleInfo, ast.FunctionDef]] = []
    for module in index.modules:
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                matches.append((module, node))
    return matches[0] if len(matches) == 1 else None


def _replace_kwargs(func: ast.FunctionDef) -> Set[str]:
    """Keyword names of any ``replace(config, ...)``-style call in ``func``."""
    kwargs: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "replace"
        ):
            kwargs.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return kwargs


def _pop_literals(func: ast.FunctionDef) -> Set[str]:
    """String literals passed to ``<payload>.pop("...")`` calls in ``func``."""
    popped: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            popped.add(node.args[0].value)
    return popped


@register_rule
class CacheKeyHygieneRule(Rule):
    """``BenchmarkConfig`` fields vs the documented cache-key classification."""

    rule_id = "KEY001"
    contract = (
        "every BenchmarkConfig field is classified keyed/normalized/stripped "
        "in lint.toml, and cache_key() implements that classification"
    )

    def check(self, index: ProjectIndex, config: LintConfig) -> Iterator[Finding]:
        config_class = index.find_class(CONFIG_CLASS)
        if config_class is None:
            return  # partial tree (fixtures/tests) without the config class
        fields = config_class.annotated_field_names()
        buckets = config.cache_key_buckets
        classified = {}
        for bucket, names in sorted(buckets.items()):
            for name in names:
                classified.setdefault(name, []).append(bucket)

        for name in fields:
            owners = classified.get(name, [])
            if not owners:
                yield self._field_finding(
                    config_class,
                    name,
                    f"BenchmarkConfig.{name} is not classified in the cache-key "
                    "contract (keyed / normalized / stripped)",
                    hint="decide its key semantics and add it to the matching "
                    "bucket under [rules.cache-key] in lint.toml",
                )
            elif len(owners) > 1:
                yield self._field_finding(
                    config_class,
                    name,
                    f"BenchmarkConfig.{name} is classified in multiple cache-key "
                    f"buckets ({', '.join(owners)})",
                    hint="a field has exactly one key semantics; keep one bucket",
                )
        for name, owners in sorted(classified.items()):
            if name not in fields:
                yield self._field_finding(
                    config_class,
                    name,
                    f"cache-key bucket '{owners[0]}' names '{name}', which is "
                    "not a BenchmarkConfig field",
                    hint="remove the stale entry from [rules.cache-key]",
                )

        located = _find_function(index, KEY_FUNCTION)
        if located is None:
            return  # partial tree without the key function
        module, func = located
        normalized_in_code = _replace_kwargs(func) & set(fields)
        stripped_in_code = _pop_literals(func) & set(fields)

        for name in fields:
            owners = classified.get(name, [])
            bucket = owners[0] if len(owners) == 1 else None
            if bucket == "normalized" and name not in normalized_in_code:
                yield self._code_finding(
                    module,
                    func,
                    name,
                    f"'{name}' is documented as normalized but cache_key() does "
                    "not rewrite it via replace(config, ...)",
                )
            elif bucket == "stripped" and name not in stripped_in_code:
                yield self._code_finding(
                    module,
                    func,
                    name,
                    f"'{name}' is documented as stripped but cache_key() does "
                    "not pop it from the payload",
                )
            elif bucket == "keyed" and (
                name in normalized_in_code or name in stripped_in_code
            ):
                yield self._code_finding(
                    module,
                    func,
                    name,
                    f"'{name}' is documented as keyed but cache_key() rewrites "
                    "or strips it, so it never reaches the hash",
                )

    # ------------------------------------------------------------- helpers
    def _field_finding(
        self, config_class: ClassInfo, name: str, message: str, hint: str
    ) -> Finding:
        line = config_class.class_attrs.get(name, config_class.node.lineno)
        return self.finding(
            config_class.module,
            line,
            f"{CONFIG_CLASS}.{name}",
            message,
            hint=hint,
        )

    def _code_finding(
        self, module: ModuleInfo, func: ast.FunctionDef, name: str, message: str
    ) -> Finding:
        return self.finding(
            module,
            func.lineno,
            f"{KEY_FUNCTION}.{name}",
            message,
            hint="make the code and the [rules.cache-key] classification agree "
            "(and bump CACHE_FORMAT_VERSION if key contents change)",
        )


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
