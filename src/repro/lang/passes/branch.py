"""Arc-frequency-guided branch ordering: attach layout hints to the AST.

The feedback layer turns measured histogram mass and call counts into
per-branch decisions — "this if's then-arm ran more than its else-arm",
"this loop averages well over one iteration per entry" — keyed by
``(function name, branch ordinal)`` where the ordinal comes from
:func:`repro.lang.ast.iter_branch_nodes` (the numbering contract
shared with the code generator's source map).  This pass stamps those
decisions onto the tree as ``If.likely`` / ``While.rotate`` hints; the
code generator then emits the measured-likely successor on the
fall-through path and bottom-tests hot loops.

Hints are pure layout advice: the lowering of a hinted branch has the
same instruction count and identical observable behaviour — only the
jump taxes move onto the measured-cold path.
"""

from __future__ import annotations

from dataclasses import replace

from repro.lang import ast
from repro.lang.passes.fold import replace_program
from repro.pipeline.trace import Stage

#: Hint verdicts the feedback layer may record per branch ordinal.
SWAP = "swap"      # If: emit the then-arm on the fall-through path
ROTATE = "rotate"  # While: emit the bottom-tested form


class BranchOrderPass(Stage):
    """Stamp measured-likely-successor hints onto If/While nodes.

    Must run *first* in a feedback pipeline: the ordinals in
    ``feedback.branch_hints`` were assigned on the tree shape that was
    measured, so they must be applied before folding or inlining can
    change that shape.
    """

    name = "branch-order"
    provides = ("branch-hints",)

    def run(self, state, counters):
        program, feedback = state.program, state.feedback
        if not state.feedback_active or not feedback.branch_hints:
            return
        functions = []
        for fn in program.functions:
            hints = {
                ordinal: verdict
                for (fname, ordinal), verdict in feedback.branch_hints.items()
                if fname == fn.name
            }
            if not hints:
                functions.append(fn)
                continue
            ordinals = {
                id(node): i
                for i, node in enumerate(ast.iter_branch_nodes(fn.body))
            }
            functions.append(
                replace(fn, body=self._stmts(fn.body, ordinals, hints, counters))
            )
        state.program = replace_program(program, functions)

    def _stmts(self, stmts, ordinals, hints, counters) -> tuple:
        out = []
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                verdict = hints.get(ordinals[id(stmt)])
                likely = stmt.likely
                if verdict == SWAP and stmt.otherwise:
                    if likely != "then":
                        counters["reordered_ifs"] += 1
                    likely = "then"
                out.append(
                    replace(
                        stmt,
                        then=self._stmts(stmt.then, ordinals, hints, counters),
                        otherwise=self._stmts(
                            stmt.otherwise, ordinals, hints, counters
                        ),
                        likely=likely,
                    )
                )
            elif isinstance(stmt, ast.While):
                verdict = hints.get(ordinals[id(stmt)])
                rotate = stmt.rotate
                if verdict == ROTATE:
                    if not rotate:
                        counters["rotated_loops"] += 1
                    rotate = True
                out.append(
                    replace(
                        stmt,
                        body=self._stmts(stmt.body, ordinals, hints, counters),
                        rotate=rotate,
                    )
                )
            else:
                out.append(stmt)
        return tuple(out)
