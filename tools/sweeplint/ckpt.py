"""checkpoint-coverage: durable serializer must match the state declaration.

Ported from tools/lint_invariants.py (which brace-matched function bodies
with regexes) onto sweeplint's shared member model: both frontends hand
us the VisitState and SerializeCheckpoint (or SerializeAlgState) bodies
as token streams, so a declared member is the same identifier-set
definition snapshot-completeness already uses, and the two tools can no
longer disagree about what a "member read" is.

Crash recovery rebuilds a warehouse from the durable checkpoint, so the
serializer must cover exactly the member set the class declares in
VisitState: every `member_` token in Warehouse's declaration must be
written by SerializeCheckpoint, and every member an algorithm declares
by its SerializeAlgState (a declaration with no serializer at all is
also an error). Members that genuinely must not be checkpointed — the
durable store itself, recovery instrumentation — are declared in a
`// checkpoint-exempt: member_ ... — rationale` comment block directly
above the serializer. An exemption for a member the declaration does not
name, or one the serializer writes anyway, is stale and fails.

This check uses the checkpoint-exempt block as its suppression grammar,
not sweeplint:allow — the exemption names *members*, not lines.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from model import (
    MIN_RATIONALE_LEN,
    STATE_DECLARATION_METHOD,
    Diagnostic,
    Method,
    Model,
)
from tokutil import in_scope

CHECK_CKPT = "checkpoint-coverage"
CKPT_SCOPE = ("src/core/", "src/shard/")

# The durable serializers a declaring class may define: Warehouse writes
# its own members in SerializeCheckpoint, each algorithm in
# SerializeAlgState. Whatever VisitState declares must reach the bytes.
SERIALIZERS = ("SerializeCheckpoint", "SerializeAlgState")

# Warehouse members are lowercase snake_case with a trailing underscore.
_MEMBER_TOKEN = re.compile(r"[a-z][a-z0-9_]*_")
_MEMBER_IN_TEXT = re.compile(r"\b[a-z][a-z0-9_]*_(?![A-Za-z0-9_])")
EXEMPT_MARK = "checkpoint-exempt:"
# The rationale separator inside a checkpoint-exempt block: an em dash
# or a standalone "--".
_EXEMPT_DASH = re.compile(r"—|(?<!-)--(?!-)")


def _member_tokens(body: Method) -> Set[str]:
    return {
        t for t in body.identifier_set() if _MEMBER_TOKEN.fullmatch(t)
    }


def _exempt_block(
    model: Model, file: str, def_line: int
) -> Tuple[Set[str], int, str]:
    """Parses the contiguous comment block directly above a serializer
    definition. Returns (exempt member names, block start line or -1
    when there is no checkpoint-exempt block, error text or '')."""
    comments = model.comment_lines.get(file, set())
    texts = model.comment_text.get(file, {})
    run: List[int] = []
    probe = def_line - 1
    while probe in comments:
        run.append(probe)
        probe -= 1
    if not run:
        return set(), -1, ""
    run.reverse()
    text = " ".join(texts.get(ln, "") for ln in run)
    if EXEMPT_MARK not in text:
        return set(), -1, ""
    start = run[0]
    after = text.split(EXEMPT_MARK, 1)[1]
    dash = _EXEMPT_DASH.search(after)
    if dash is None or len(after[dash.end():].strip()) < MIN_RATIONALE_LEN:
        return set(), start, (
            "checkpoint-exempt needs a rationale after an em dash or "
            f"'--' (>= {MIN_RATIONALE_LEN} chars)"
        )
    names = set(_MEMBER_IN_TEXT.findall(after[: dash.start()]))
    return names, start, ""


def check_checkpoint_coverage(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    save_name = STATE_DECLARATION_METHOD
    for name in sorted(model.classes):
        cls = model.classes[name]
        save = cls.state_declaration()
        if save is None or not in_scope(save.file, scope):
            continue
        save_members = _member_tokens(save)
        if not save_members:
            continue
        ser = next(
            (cls.methods[n] for n in SERIALIZERS if n in cls.methods), None
        )
        if ser is None:
            diags.append(
                Diagnostic(
                    file=save.file,
                    line=save.line,
                    check=CHECK_CKPT,
                    message=(
                        f"class {cls.name}: {save_name} declares state but "
                        "neither SerializeCheckpoint nor SerializeAlgState "
                        "is defined; none of it reaches the durable "
                        "checkpoint crash recovery restores from"
                    ),
                )
            )
            continue
        ser_name = ser.name
        ser_members = _member_tokens(ser)
        exempt, block_line, block_err = _exempt_block(
            model, ser.file, ser.line
        )
        if block_err:
            diags.append(
                Diagnostic(
                    file=ser.file,
                    line=block_line,
                    check=CHECK_CKPT,
                    message=block_err,
                )
            )
        for member in sorted(save_members - ser_members - exempt):
            diags.append(
                Diagnostic(
                    file=save.file,
                    line=save.line,
                    check=CHECK_CKPT,
                    message=(
                        f"class {cls.name}: '{member}' is declared in "
                        f"{save_name} but never written by {ser_name}; "
                        "crash recovery would restore less state than "
                        "an in-sim snapshot restore — serialize it or "
                        "list it in the checkpoint-exempt block with a "
                        "rationale"
                    ),
                )
            )
        for member in sorted(exempt - save_members):
            diags.append(
                Diagnostic(
                    file=ser.file,
                    line=block_line,
                    check=CHECK_CKPT,
                    message=(
                        f"stale exemption: {save_name} does not "
                        f"declare '{member}' — delete it from the "
                        "checkpoint-exempt block"
                    ),
                )
            )
        for member in sorted(exempt & ser_members):
            diags.append(
                Diagnostic(
                    file=ser.file,
                    line=block_line,
                    check=CHECK_CKPT,
                    message=(
                        f"stale exemption: {ser_name} writes "
                        f"'{member}' anyway — delete it from the "
                        "checkpoint-exempt block"
                    ),
                )
            )
    return diags
