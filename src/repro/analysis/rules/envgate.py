"""``env-gate``: environment flags go through ``repro.envflags``, documented.

Two checks, one rule:

* **Read gating** — any ``os.environ`` / ``os.getenv`` read outside
  :mod:`repro.envflags` is a finding.  Scattered reads are how the repo
  accumulated three subtly different gate semantics before PR 10; the
  central module keeps each flag's semantics written down once and gives
  the doc check below one place to look.
* **Doc sync** — inside ``repro/envflags.py``, every ``REPRO_*`` /
  ``COMPASS_*`` variable name read from the environment must appear in
  the environment-variable table of the project's ``ROADMAP.md`` (the
  nearest ancestor ROADMAP.md of the linted file), and every name in that
  table must be read there.  Code and doc cannot drift apart in either
  direction without a finding.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, LintContext, Rule

#: the one module sanctioned to read the environment
ENVFLAGS_FILE = "repro/envflags.py"

_FLAG_NAME = re.compile(r"^(REPRO|COMPASS)_[A-Z0-9_]+$")
_TABLE_ROW = re.compile(r"^\|\s*`([A-Z0-9_]+)`\s*\|")


def roadmap_env_table(project_root: Optional[str]) -> Optional[Set[str]]:
    """Variable names documented in ROADMAP.md's env table (None = no doc)."""
    if project_root is None:
        return None
    path = os.path.join(project_root, "ROADMAP.md")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    return {match.group(1) for match in map(_TABLE_ROW.match, text.splitlines())
            if match}


def _env_var_literal(node: ast.Call) -> Optional[str]:
    """The flag-name literal of an environ read, if it is one."""
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


class EnvGateRule(Rule):
    rule_id = "env-gate"
    description = ("os.environ reads outside repro.envflags, and envflags "
                   "reads and ROADMAP env-var table rows that lack their "
                   "counterpart")

    def __init__(self) -> None:
        #: (name, lineno) of env vars this file reads, for the doc check
        self._read_flags: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    def _is_envflags_module(self, ctx: LintContext) -> bool:
        return ctx.rel_path == ENVFLAGS_FILE \
            or ctx.rel_path.endswith("/" + ENVFLAGS_FILE)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        read: Optional[Tuple[int, Optional[str]]] = None
        if isinstance(node, ast.Call):
            dotted = ctx.resolve_call(node)
            if dotted in ("os.getenv", "os.environ.get"):
                read = (node.lineno, _env_var_literal(node))
        elif isinstance(node, ast.Subscript):
            if ctx.dotted_name(node.value) == "os.environ":
                name = None
                if isinstance(node.slice, ast.Constant) \
                        and isinstance(node.slice.value, str):
                    name = node.slice.value
                read = (node.lineno, name)
        if read is None:
            return
        lineno, name = read
        if self._is_envflags_module(ctx):
            if name is not None and _FLAG_NAME.match(name):
                self._read_flags.append((name, lineno))
            return
        label = f" of {name}" if name else ""
        yield Finding(
            ctx.rel_path, lineno, self.rule_id,
            f"direct environment read{label} outside repro.envflags; add a "
            "typed accessor there (and a ROADMAP env-table row) instead",
        )

    # ------------------------------------------------------------------
    def finish(self, ctx: LintContext) -> Iterable[Finding]:
        if not self._is_envflags_module(ctx):
            return
        documented = roadmap_env_table(ctx.project_root)
        if documented is None:
            return
        for name, lineno in self._read_flags:
            if name not in documented:
                yield Finding(
                    ctx.rel_path, lineno, self.rule_id,
                    f"environment flag {name} is read here but missing from "
                    "the ROADMAP.md environment-variable table; document it",
                )
        read = {name for name, _ in self._read_flags}
        for name in sorted(documented - read):
            yield Finding(
                ctx.rel_path, 1, self.rule_id,
                f"environment flag {name} is documented in the ROADMAP.md "
                "environment-variable table but never read here; drop the "
                "row or restore the accessor",
            )
