"""The SPMD rule family, evaluated over the dataflow results.

| Code    | Hazard                                                            |
|---------|-------------------------------------------------------------------|
| SPMD003 | in-place mutation of a received payload (on-node messages alias   |
|         | the sender's object) without a defensive copy                     |
| SPMD004 | mutable default argument (shared across rank threads)             |
| SPMD005 | bare ``except:`` (swallows the abort wake-up; the job hangs)      |
| SPMD006 | concrete annotation with a ``None`` default                       |
| SPMD101 | collective reached under rank-divergent control flow (aliases,    |
|         | early exits, cross-function)                                      |
| SPMD102 | branch-inconsistent collective *sequences* (static twin of the    |
|         | runtime collective-order ledger)                                  |
| SPMD103 | nondeterminism source flowing into a wire or report path          |
| SPMD104 | stale-ghost read: owner mutation, then a ghost/copy read with no  |
|         | synchronize/accumulate on some path                               |
| SPMD105 | rank-tainted value escaping into module/class state shared across |
|         | rank threads                                                      |

SPMD000 (syntax error) comes from the engine and SPMD007 (unjustified
suppression) from :mod:`repro.analysis.suppress`.

Each body is scanned by :class:`FunctionScan` whenever its dataflow is
recomputed: a structured walk that pairs ``if``/``else`` arms (the CFG
cannot — arm pairing is a tree property), compares their collective
sequences, and consults the per-statement taint environments computed by
:mod:`repro.analysis.taint` over the CFG.  Scans double as summary
producers: the collective sequence, return taint and divergence-prone
parameters they derive feed the fixpoint, which is how a helper's
collectives become visible at its call sites in another file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .program import FunctionInfo, Program, _is_mutable_literal
from .taint import (
    EMPTY,
    MUTATING_METHODS,
    PAYLOAD,
    POSTING_CALLS,
    RANK,
    Evaluator,
    Summary,
    Tokens,
    _receiver_name,
)


@dataclass(frozen=True)
class Finding:
    """One hazard at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: Methods that read ghost/copy values of a distributed field.
GHOST_READS: Set[str] = {
    "ghost_value",
    "ghost_values",
    "get_ghost",
    "copy_value",
    "copy_values",
    "copies",
    "ghosts",
    "ghost_entities",
    "ghost_items",
    "max_copy_disagreement",
}

#: Wire sinks beyond posting: exchange payload arguments.
WIRE_SINKS: Set[str] = POSTING_CALLS | {
    "exchange",
    "neighbor_exchange",
    "dense_exchange",
}

#: Report sinks: serialization calls and report-shaped function names.
REPORT_CALL_SINKS: Set[str] = {"dumps", "dump"}
_REPORT_FUNC_RE = re.compile(r"report|to_dict|to_json|summary", re.IGNORECASE)

#: Annotations considered concrete (a ``= None`` default contradicts them).
_CONCRETE_ANNOTATIONS = {
    "bool",
    "int",
    "float",
    "complex",
    "str",
    "bytes",
    "list",
    "dict",
    "set",
    "tuple",
    "List",
    "Dict",
    "Set",
    "Tuple",
    "Sequence",
    "Mapping",
    "Callable",
    "Iterable",
    "Iterator",
    "FrozenSet",
}

HINTS: Dict[str, str] = {
    "SPMD003": (
        "copy before mutating (payload = list(payload) / dict(payload) / "
        "copy.deepcopy(payload)); on-node messages alias the sender's object"
    ),
    "SPMD004": (
        "default to None and create the container inside the function body"
    ),
    "SPMD005": (
        "catch a specific exception; a bare except swallows CommAbortedError "
        "and turns a clean SPMD abort into a hang"
    ),
    "SPMD006": "annotate as Optional[...] (PEP 484 forbids implicit Optional)",
    "SPMD101": (
        "make every rank reach the collective (hoist it, or split the "
        "communicator for the subset that participates)"
    ),
    "SPMD102": (
        "make both arms perform the same collective sequence, or move the "
        "collectives out of the rank-dependent branch"
    ),
    "SPMD103": (
        "derive wire/report payloads from deterministic inputs (seeded rng, "
        "sorted(...) iteration, logical step counters instead of wall time)"
    ),
    "SPMD104": (
        "call synchronize()/accumulate() after mutating owned values and "
        "before reading ghost copies on every path"
    ),
    "SPMD105": (
        "keep rank-derived values in per-rank locals; module/class state is "
        "shared by every rank thread in the process"
    ),
}


def _nd_kinds(tokens: Tokens) -> List[str]:
    return sorted(t[3:] for t in tokens if t.startswith("ND:"))


def _dirty_lines(tokens: Tokens) -> List[int]:
    return sorted(int(t[6:]) for t in tokens if t.startswith("DIRTY:"))


@dataclass
class _Arm:
    """Summary of one statement region (an if-arm, a loop body, ...)."""

    #: Collective sequence markers, in execution order.  Real ops are bare
    #: names; data-dependent subregions contribute ``?``-markers so outer
    #: comparisons stay conservative.
    seq: List[str] = field(default_factory=list)
    #: Whether every path through the region exits it (return/raise/
    #: break/continue) — used to detect rank-divergent early exits.
    terminated: bool = False


class FunctionScan:
    """One structured pass over one function."""

    def __init__(
        self,
        info: FunctionInfo,
        program: Program,
        summaries: Dict[int, Summary],
        env_at: Dict[int, Dict[str, Tokens]],
    ) -> None:
        self.info = info
        self.program = program
        self.summaries = summaries
        self.env_at = env_at
        self.evaluator = Evaluator(program, summaries, info)
        self.findings: List[Finding] = []
        self.divergence_params: Set[int] = set()
        self.ret: Tokens = EMPTY
        #: Line of the rank-divergent early exit we are downstream of.
        self._diverged_at: Optional[int] = None

    # -- bookkeeping -------------------------------------------------------

    def _env(self, stmt: ast.stmt) -> Dict[str, Tokens]:
        return self.env_at.get(id(stmt), {})

    def _emit(
        self, code: str, node: ast.AST, message: str
    ) -> None:
        self.findings.append(
            Finding(
                path=self.info.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
                hint=HINTS[code],
            )
        )

    # -- collective sites --------------------------------------------------

    def _collective_sites(
        self, stmt: ast.stmt, env: Dict[str, Tokens]
    ) -> List[Tuple[ast.Call, Tuple[str, ...], str]]:
        """Every collective-performing call in one statement's expressions.

        Returns ``(call node, op sequence, label)`` triples: a direct or
        aliased collective contributes its single op; a call into an
        analyzed function contributes that function's summarized sequence.
        """
        sites: List[Tuple[ast.Call, Tuple[str, ...], str]] = []
        for call in self.program.calls(stmt):
            op = self.evaluator._collective_op(call, env)
            if op is not None:
                sites.append((call, (op,), op))
                continue
            for target in self.program.resolve_call(call, self.info)[0]:
                summary = self.summaries.get(id(target.node))
                if summary is not None and summary.seq:
                    sites.append(
                        (call, summary.seq, f"{target.qualname}()")
                    )
                    break
        return sites

    # -- the walk ----------------------------------------------------------

    def run(self) -> Tuple[Summary, List[Finding]]:
        """The body's summary under the current callee summaries, and its
        findings."""
        if isinstance(self.info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_defaults(self.info.node)
        arm = self._walk(self.info.body)
        summary = Summary(
            ret=frozenset(t for t in self.ret if not t.startswith("DIRTY:")),
            seq=tuple(arm.seq),
            divergence_params=frozenset(self.divergence_params),
        )
        return summary, self.findings

    def _walk(self, stmts: Sequence[ast.stmt]) -> _Arm:
        arm = _Arm()
        for stmt in stmts:
            if arm.terminated:
                break  # unreachable tail
            self._stmt(stmt, arm)
        return arm

    def _stmt(self, stmt: ast.stmt, arm: _Arm) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs run elsewhere; defining one is no call
        env = self._env(stmt)
        if self._diverged_at is not None:
            # Downstream of a rank-dependent early exit: only a rank subset
            # still runs, so *any* collective here is a mismatch.
            for call, _ops, label in self._collective_sites(stmt, env):
                self._emit(
                    "SPMD101",
                    call,
                    f"collective '{label}' is unreachable for ranks that "
                    f"took the rank-dependent early exit at line "
                    f"{self._diverged_at}; the remaining ranks block forever",
                )
        if isinstance(stmt, ast.If):
            self._if(stmt, arm, env)
            return
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loop(stmt, arm, env)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._simple_checks_expr(item.context_expr, env)
            inner = self._walk(stmt.body)
            arm.seq.extend(inner.seq)
            arm.terminated = inner.terminated
            return
        if isinstance(stmt, ast.Try):
            self._try(stmt, arm)
            return
        # Simple statement.
        self._simple_checks_expr(stmt, env)
        self._check_shared_state(stmt, env)
        self._check_payload_store(stmt, env)
        for _call, ops, _label in self._collective_sites(stmt, env):
            arm.seq.extend(ops)
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            arm.terminated = True
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self.ret |= self.evaluator.tokens(stmt.value, env)
                self._check_report_return(stmt, env)

    def _if(self, stmt: ast.If, arm: _Arm, env: Dict[str, Tokens]) -> None:
        test_tokens = self.evaluator.tokens(stmt.test, env)
        self._simple_checks_expr(stmt.test, env)
        body = self._walk(stmt.body)
        orelse = self._walk(stmt.orelse)
        rank_test = RANK in test_tokens
        params = sorted(
            int(t[2:]) for t in test_tokens if t.startswith("P:")
        )
        divergent_arms = body.seq != orelse.seq or (
            body.terminated != orelse.terminated
        )
        if rank_test:
            if body.seq != orelse.seq:
                if not body.seq or not orelse.seq:
                    for call, _ops, label in self._arm_sites(
                        stmt.body if body.seq else stmt.orelse
                    ):
                        self._emit(
                            "SPMD101",
                            call,
                            f"collective '{label}' is reached only by ranks "
                            f"on one side of the rank-dependent branch at "
                            f"line {stmt.lineno}; the other ranks never "
                            f"enter it and the job deadlocks or cross-"
                            f"matches",
                        )
                else:
                    self._emit(
                        "SPMD102",
                        stmt,
                        "rank-dependent branch arms execute different "
                        f"collective sequences ({self._fmt(body.seq)} vs "
                        f"{self._fmt(orelse.seq)}); ranks taking different "
                        "arms cross-match collectives",
                    )
            if body.terminated != orelse.terminated:
                # One side leaves the function/loop: everything after this
                # branch runs on a rank-dependent subset.
                if self._diverged_at is None:
                    self._diverged_at = stmt.lineno
        elif params and divergent_arms and (body.seq or orelse.seq):
            self.divergence_params.update(params)
        # Sequence contribution of the whole if.
        if body.seq == orelse.seq:
            arm.seq.extend(body.seq)
        elif rank_test:
            arm.seq.extend(body.seq if body.seq else orelse.seq)
        else:
            arm.seq.append(f"?if@{stmt.lineno}")
        arm.terminated = body.terminated and orelse.terminated

    def _arm_sites(self, stmts: Sequence[ast.stmt]):
        sites = []
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            sites.extend(self._collective_sites(stmt, self._env(stmt)))
        return sites

    def _loop(self, stmt, arm: _Arm, env: Dict[str, Tokens]) -> None:
        if isinstance(stmt, ast.While):
            cond_tokens = self.evaluator.tokens(stmt.test, env)
            self._simple_checks_expr(stmt.test, env)
        else:
            cond_tokens = self.evaluator.tokens(stmt.iter, env)
            self._simple_checks_expr(stmt.iter, env)
        body = self._walk(stmt.body)
        if getattr(stmt, "orelse", None):
            tail = self._walk(stmt.orelse)
            body.seq.extend(tail.seq)
        if RANK in cond_tokens and body.seq:
            for call, ops, label in self._arm_sites(stmt.body):
                self._emit(
                    "SPMD101",
                    call,
                    f"collective '{label}' runs inside a loop whose "
                    f"{'condition' if isinstance(stmt, ast.While) else 'iteration space'} "
                    f"is rank-dependent (line {stmt.lineno}); ranks execute "
                    f"different collective counts",
                )
        if body.seq:
            arm.seq.append(f"*loop@{stmt.lineno}({','.join(body.seq)})")

    def _try(self, stmt: ast.Try, arm: _Arm) -> None:
        body = self._walk(stmt.body)
        arm.seq.extend(body.seq)
        for handler in stmt.handlers:
            if handler.type is None:
                self._emit(
                    "SPMD005",
                    handler,
                    "bare 'except:' catches abort/interrupt signals",
                )
            caught = self._walk(handler.body)
            if caught.seq:
                arm.seq.append(f"?except@{handler.lineno}")
        if stmt.orelse:
            arm.seq.extend(self._walk(stmt.orelse).seq)
        if stmt.finalbody:
            final = self._walk(stmt.finalbody)
            arm.seq.extend(final.seq)
            arm.terminated = body.terminated or final.terminated
        else:
            arm.terminated = body.terminated

    @staticmethod
    def _fmt(seq: Sequence[str]) -> str:
        return "[" + " -> ".join(seq) + "]" if seq else "[none]"

    # -- per-statement rule checks ----------------------------------------

    def _simple_checks_expr(
        self, node: ast.AST, env: Dict[str, Tokens]
    ) -> None:
        for call in self.program.calls(node):
            self._check_nondet_sink(call, env)
            self._check_ghost_read(call, env)
            self._check_divergent_callee(call, env)
            self._check_payload_mutation(call, env)

    # SPMD003 ---------------------------------------------------------------

    def _check_payload_mutation(
        self, call: ast.Call, env: Dict[str, Tokens]
    ) -> None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and PAYLOAD in self.evaluator.tokens(func.value, env)
        ):
            name = _receiver_name(func) or ast.unparse(func.value)
            self._emit(
                "SPMD003",
                call,
                f"received payload '{name}' mutated in place via "
                f".{func.attr}() without a defensive copy",
            )

    def _check_payload_store(
        self, stmt: ast.stmt, env: Dict[str, Tokens]
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.Delete)):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            return
        for node in (sub for target in targets for sub in ast.walk(target)):
            if (
                isinstance(node, (ast.Subscript, ast.Attribute))
                and not isinstance(node.ctx, ast.Load)
                and PAYLOAD in self.evaluator.tokens(node.value, env)
            ):
                name = _receiver_name(node) or ast.unparse(node.value)
                self._emit(
                    "SPMD003",
                    node,
                    f"received payload '{name}' mutated in place by item/"
                    f"attribute assignment without a defensive copy",
                )

    # SPMD004 / SPMD006 -----------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        pairs = list(zip(positional[first:], args.defaults))
        pairs += [
            (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        for arg, default in pairs:
            if _is_mutable_literal(default):
                self._emit(
                    "SPMD004",
                    default,
                    f"mutable default for argument '{arg.arg}' of "
                    f"'{node.name}' is shared across all rank threads",
                )
            elif (
                isinstance(default, ast.Constant)
                and default.value is None
                and arg.annotation is not None
            ):
                head = arg.annotation
                if isinstance(head, ast.Subscript):
                    head = head.value
                name = getattr(head, "id", getattr(head, "attr", None))
                if name in _CONCRETE_ANNOTATIONS:
                    self._emit(
                        "SPMD006",
                        arg,
                        f"argument '{arg.arg}' of '{node.name}' is annotated "
                        f"'{name}' but defaults to None",
                    )

    # SPMD103 ---------------------------------------------------------------

    def _check_nondet_sink(
        self, call: ast.Call, env: Dict[str, Tokens]
    ) -> None:
        func = call.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if name in WIRE_SINKS:
            sink = "wire"
        elif name in REPORT_CALL_SINKS:
            sink = "report"
        else:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            tokens = self.evaluator.tokens(arg, env)
            kinds = _nd_kinds(tokens)
            if kinds:
                self._emit(
                    "SPMD103",
                    arg,
                    f"nondeterministic value ({', '.join(kinds)}) flows "
                    f"into {sink} sink '{name}'; runs will not be "
                    f"byte-identical",
                )

    def _check_report_return(
        self, stmt: ast.Return, env: Dict[str, Tokens]
    ) -> None:
        if stmt.value is None:
            return
        if not _REPORT_FUNC_RE.search(self.info.name):
            return
        kinds = _nd_kinds(self.evaluator.tokens(stmt.value, env))
        if kinds:
            self._emit(
                "SPMD103",
                stmt,
                f"report-path function '{self.info.qualname}' returns a "
                f"nondeterministic value ({', '.join(kinds)})",
            )

    # SPMD104 ---------------------------------------------------------------

    def _check_ghost_read(
        self, call: ast.Call, env: Dict[str, Tokens]
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in GHOST_READS:
            return
        receiver = _receiver_name(func)
        if receiver is None:
            return
        lines = _dirty_lines(env.get(receiver, EMPTY))
        if lines:
            self._emit(
                "SPMD104",
                call,
                f"ghost/copy read '.{func.attr}()' on '{receiver}' after "
                f"owner mutation at line {lines[0]} with no intervening "
                f"synchronize/accumulate on some path; ghost copies are "
                f"stale",
            )

    # SPMD101 interprocedural ----------------------------------------------

    def _check_divergent_callee(
        self, call: ast.Call, env: Dict[str, Tokens]
    ) -> None:
        for target in self.program.resolve_call(call, self.info)[0]:
            summary = self.summaries.get(id(target.node))
            if summary is None or not summary.divergence_params:
                continue
            actuals = self.evaluator.call_arg_tokens(target, call, env)
            params = target.param_names()
            for index in sorted(summary.divergence_params):
                if index < len(actuals) and RANK in actuals[index]:
                    self._emit(
                        "SPMD101",
                        call,
                        f"rank-derived value passed as parameter "
                        f"'{params[index]}' of '{target.qualname}', which "
                        f"guards collectives with it; the collective "
                        f"sequence diverges across ranks",
                    )

    # SPMD105 ---------------------------------------------------------------

    def _module_global_line(self, name: str) -> Optional[int]:
        if name in self.info.local_names and name not in self.info.global_decls:
            return None
        return self.info.module.globals.get(name)

    def _class_shared_attr(self, target: ast.AST) -> Optional[str]:
        """``Cls.attr`` / ``self.<class-mutable>`` shared-state stores."""
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return None
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if not isinstance(base, ast.Attribute):
            return None
        value = base.value
        if isinstance(value, ast.Name) and value.id in self.program.class_names:
            return f"{value.id}.{base.attr}"
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "__class__"
        ):
            return f"<class>.{base.attr}"
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "type"
        ):
            return f"<class>.{base.attr}"
        cls = self.evaluator.cls
        if (
            cls is not None
            and isinstance(value, ast.Name)
            and value.id == "self"
            and base.attr in cls.mutable_attrs
        ):
            return f"{cls.name}.{base.attr} (class-level container)"
        return None

    def _check_shared_state(
        self, stmt: ast.stmt, env: Dict[str, Tokens]
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value_tokens = (
                self.evaluator.tokens(stmt.value, env)
                if stmt.value is not None
                else EMPTY
            )
            if RANK not in value_tokens:
                value_tokens |= self._subscript_key_tokens(targets, env)
            if RANK not in value_tokens:
                return
            for target in targets:
                described = self._store_target_description(target)
                if described is not None:
                    self._emit(
                        "SPMD105",
                        stmt,
                        f"rank-tainted value stored into {described}, "
                        f"which is shared across all rank threads",
                    )
        else:
            for call in self.program.calls(stmt):
                func = call.func
                if (
                    not isinstance(func, ast.Attribute)
                    or func.attr not in MUTATING_METHODS
                ):
                    continue
                args_tainted = any(
                    RANK in self.evaluator.tokens(arg, env)
                    for arg in list(call.args)
                    + [kw.value for kw in call.keywords]
                )
                if not args_tainted:
                    continue
                described = self._mutated_shared(func.value)
                if described is not None:
                    self._emit(
                        "SPMD105",
                        call,
                        f"rank-tainted value inserted into {described} via "
                        f".{func.attr}(); that state is shared across all "
                        f"rank threads",
                    )

    def _subscript_key_tokens(
        self, targets: Sequence[ast.AST], env: Dict[str, Tokens]
    ) -> Tokens:
        out: Tokens = EMPTY
        for target in targets:
            if isinstance(target, ast.Subscript):
                out |= self.evaluator.tokens(target.slice, env)
        return out

    def _store_target_description(
        self, target: ast.AST
    ) -> Optional[str]:
        if isinstance(target, ast.Name):
            line = self._module_global_line(target.id)
            if line is not None and target.id in self.info.global_decls:
                return f"module global '{target.id}' (bound at line {line})"
            return None
        if isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                line = self._module_global_line(base.id)
                if line is not None:
                    return (
                        f"module-level container '{base.id}' "
                        f"(bound at line {line})"
                    )
        return self._class_shared_attr(target)

    def _mutated_shared(self, receiver: ast.AST) -> Optional[str]:
        if isinstance(receiver, ast.Name):
            line = self._module_global_line(receiver.id)
            if line is not None:
                return (
                    f"module-level container '{receiver.id}' "
                    f"(bound at line {line})"
                )
            return None
        fake_store = ast.Subscript(value=receiver, slice=ast.Constant(0))
        return self._class_shared_attr(fake_store)
