"""Rank-taint lattice and transfer functions for the SPMD analyzer.

The abstract domain is a *token set* per name — the powerset lattice over a
small token universe, joined by union:

``RANK``
    the value derives from the calling rank's identity (``world.rank``,
    ``comm.rank``, ``Get_rank()``, asymmetric collective results like
    ``scatter``/``gather``/``scan``, or any ``*_rank`` name);
``ND:<kind>``
    the value is nondeterministic across runs (wall clock, unseeded
    ``random``, ``id()``, ``hash()``, iteration order of a set);
``SET``
    the value is an unordered container (iterating it yields ``ND:set``);
``COLL:<op>``
    the value is a bound collective method (``b = world.bcast``) — calling
    it is calling the collective;
``P:<i>``
    the value derives from parameter *i* of the enclosing function.  These
    symbolic tokens are how summaries stay polymorphic: a function is
    analyzed once with each parameter bound to its own token, and call
    sites substitute actual argument tokens for ``P:<i>``.
``DIRTY:<line>``
    carried by a *field-like* object after an owner-side mutation at
    ``<line>`` with no ``synchronize``/``accumulate`` yet on this path
    (the SPMD104 state, riding the same dataflow);
``INBOX`` / ``PAYLOAD``
    the value is an ``exchange`` inbox map, or a message payload a receive
    call returned — on-node messages travel *by reference*, so a payload
    aliases the sender's object (the SPMD003 state).  Subscripting,
    iterating, attribute loads and method calls derive ``PAYLOAD`` from
    either; copy calls (:data:`COPY_CALLS`), comprehensions and arithmetic
    build fresh values and clear both.

Taint propagates through assignments, arithmetic, containers, f-strings,
attribute loads, and — via :class:`Summary` substitution — interprocedural
call arguments and returns.  Order-insensitive reductions (``sorted``,
``len``, ``min``/``max``/``sum``) strip the order tokens; symmetric
collectives (``bcast``, ``allreduce``, ``allgather``, ``alltoall``) return
*clean* values because every rank receives the same result.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .program import FunctionInfo, Program

Tokens = FrozenSet[str]
EMPTY: Tokens = frozenset()
RANK = "RANK"
PAYLOAD = "PAYLOAD"
INBOX = "INBOX"
#: Tokens that mean "aliases a received message"; fresh values drop them.
ALIAS: Tokens = frozenset({PAYLOAD, INBOX})

#: User-facing collective entry points of Comm / Network / neighbor exchange.
COLLECTIVE_CALLS: Set[str] = {
    "barrier",
    "bcast",
    "scatter",
    "gather",
    "allgather",
    "reduce",
    "allreduce",
    "alltoall",
    "scan",
    "exscan",
    "split",
    "dup",
    "node_comm",
    "leader_comm",
    "exchange",
    "neighbor_exchange",
    "dense_exchange",
}

#: Calls that enqueue or transmit a message.
POSTING_CALLS: Set[str] = {
    "post",
    "send",
    "isend",
    "sendrecv",
    "transmit",
    "_csend",
}

#: Calls whose return value is a message payload (possibly by-reference).
RECEIVE_CALLS: Set[str] = {
    "recv",
    "irecv",
    "sendrecv",
    "wait",
    "_crecv",
    "bcast",
    "gather",
    "allgather",
    "alltoall",
    "scatter",
    "scan",
    "exscan",
}

#: Calls returning the whole inbox map of a superstep.
EXCHANGE_CALLS: Set[str] = {"exchange", "neighbor_exchange", "dense_exchange"}

#: In-place mutators of list/dict/set/ndarray payloads.
MUTATING_METHODS: Set[str] = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "sort",
    "reverse",
    "update",
    "setdefault",
    "add",
    "discard",
    "difference_update",
    "intersection_update",
    "symmetric_difference_update",
    "fill",
    "resize",
    "put",
}

#: Calls that build a fresh container: a defensive copy clears ``PAYLOAD``.
COPY_CALLS: Set[str] = {
    "list",
    "dict",
    "set",
    "tuple",
    "sorted",
    "copy",
    "deepcopy",
    "array",
}

#: Collectives whose *result* is identical on every rank (replicated data).
SYMMETRIC_COLLECTIVES: Set[str] = {
    "barrier",
    "bcast",
    "allreduce",
    "allgather",
    "alltoall",
}

#: Collectives whose result differs per rank (root-only or prefix results).
ASYMMETRIC_COLLECTIVES: Set[str] = {
    "scatter",
    "gather",
    "reduce",
    "scan",
    "exscan",
}

#: Rank-identity producing calls.
RANK_CALLS: Set[str] = {"Get_rank", "world_rank_of"}

#: ``module.attr`` call patterns that yield nondeterministic values.
_ND_TIME_ATTRS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "now",
    "utcnow",
    "today",
}
_ND_MODULES = {"random"}  # module-level RNG calls: random.random(), ...

#: Constructors / set methods producing unordered containers.
SET_PRODUCERS: Set[str] = {
    "set",
    "frozenset",
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "keys",  # only flagged when the receiver is itself a SET — see _call
}

#: Order-insensitive consumers: strip SET / ND:set from their argument.
ORDER_INSENSITIVE: Set[str] = {"sorted", "len", "min", "max", "sum", "any", "all"}

#: Sequencing constructors: freeze a SET's (arbitrary) order into a value.
SEQUENCING: Set[str] = {"list", "tuple"}

#: Owner-side field mutators (mark the receiver DIRTY for SPMD104).
FIELD_MUTATORS: Set[str] = {
    "set",
    "set_all",
    "set_from_coords",
    "set_owned",
    "zero_all",
    "assign",
    "axpy",
    "add_local",
}

#: Ghost/copy synchronizers (clear DIRTY on their field argument/receiver).
SYNC_CALLS: Set[str] = {
    "synchronize",
    "accumulate",
    "sync",
    "sync_ghosts",
    "update_ghosts",
}


#: Expressions that compute a fresh value (never an alias of an operand).
_FRESH = (
    ast.BinOp,
    ast.UnaryOp,
    ast.Compare,
    ast.JoinedStr,
    ast.FormattedValue,
    ast.Slice,
)


def _rank_named(name: str) -> bool:
    return name in ("rank", "vrank") or name.endswith("_rank")


def _derive(tokens: Tokens) -> Tokens:
    """Tokens of an element, attribute or method result of a value: what
    is reached through an inbox is a payload."""
    if INBOX in tokens:
        return (tokens - {INBOX}) | {PAYLOAD}
    return tokens


def _iterated(tokens: Tokens) -> Tokens:
    """Tokens bound by iterating a value (set order injects ``ND:set``)."""
    bound = _derive(tokens) - {"SET"}
    if "SET" in tokens:
        bound |= {"ND:set"}
    return bound


@dataclass
class Summary:
    """Interprocedural facts about one function, computed to fixpoint."""

    #: Tokens of the return value (``P:<i>`` still symbolic).
    ret: Tokens = EMPTY
    #: Flat collective-op sequence the function body performs.
    seq: Tuple[str, ...] = ()
    #: Parameter indices that, when rank-tainted at a call site, guard
    #: collectives behind divergent control flow inside this function.
    divergence_params: FrozenSet[int] = frozenset()


class Evaluator:
    """Expression-token evaluation for one function's body."""

    def __init__(
        self,
        program: Program,
        summaries: Dict[int, Summary],
        info: FunctionInfo,
    ) -> None:
        self.program = program
        self.summaries = summaries
        self.info = info
        self.cls = info.cls

    # -- entry point -------------------------------------------------------

    def tokens(self, expr: Optional[ast.AST], env: Dict[str, Tokens]) -> Tokens:
        if expr is None:
            return EMPTY
        method = getattr(self, "_eval_" + type(expr).__name__, None)
        if method is not None:
            return method(expr, env)
        # Default: union over child expressions (BoolOp, BinOp, Compare,
        # UnaryOp, IfExp, Starred, JoinedStr, FormattedValue, Slice, ...).
        out: Tokens = EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.tokens(child, env)
        if isinstance(expr, _FRESH):
            return out - ALIAS
        return out

    # -- atoms -------------------------------------------------------------

    def _eval_Constant(self, expr: ast.Constant, env) -> Tokens:
        return EMPTY

    def _eval_Name(self, expr: ast.Name, env) -> Tokens:
        out = env.get(expr.id, EMPTY)
        if _rank_named(expr.id):
            out |= {RANK}
        return out

    def _eval_Attribute(self, expr: ast.Attribute, env) -> Tokens:
        out = _derive(self.tokens(expr.value, env))
        if _rank_named(expr.attr):
            return out | {RANK}
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            key = f"self.{expr.attr}"
            out |= env.get(key, EMPTY)
            if self.cls is not None and expr.attr in self.cls.collective_attrs:
                out |= {f"COLL:{self.cls.collective_attrs[expr.attr]}"}
        if expr.attr in COLLECTIVE_CALLS and not self.program.external(
            expr.value, self.info
        ):
            # An *unCalled* collective attribute is a bound collective.
            out |= {f"COLL:{expr.attr}"}
        return out

    def _eval_Lambda(self, expr: ast.Lambda, env) -> Tokens:
        return EMPTY

    # -- containers --------------------------------------------------------

    def _eval_Set(self, expr: ast.Set, env) -> Tokens:
        out: Tokens = frozenset({"SET"})
        for elt in expr.elts:
            out |= self.tokens(elt, env)
        return out

    def _eval_SetComp(self, expr: ast.SetComp, env) -> Tokens:
        return self._comprehension(expr, env, [expr.elt]) | {"SET"}

    def _eval_ListComp(self, expr: ast.ListComp, env) -> Tokens:
        return self._comprehension(expr, env, [expr.elt])

    def _eval_GeneratorExp(self, expr: ast.GeneratorExp, env) -> Tokens:
        return self._comprehension(expr, env, [expr.elt])

    def _eval_DictComp(self, expr: ast.DictComp, env) -> Tokens:
        return self._comprehension(expr, env, [expr.key, expr.value])

    def _comprehension(self, expr, env, elts: List[ast.expr]) -> Tokens:
        out: Tokens = EMPTY
        inner = dict(env)
        for gen in expr.generators:
            iter_tokens = self.tokens(gen.iter, inner)
            if "SET" in iter_tokens:
                # Iterating an unordered container injects its hash order.
                out |= {"ND:set"}
            for name in _target_names(gen.target):
                inner[name] = _iterated(iter_tokens)
        for elt in elts:
            out |= self.tokens(elt, inner)
        return out - ALIAS  # a comprehension builds a fresh container

    def _eval_Subscript(self, expr: ast.Subscript, env) -> Tokens:
        return (_derive(self.tokens(expr.value, env)) - {"SET"}) | (
            self.tokens(expr.slice, env) - ALIAS
        )

    # -- calls -------------------------------------------------------------

    def _collective_op(
        self, call: ast.Call, env: Dict[str, Tokens]
    ) -> Optional[str]:
        """The collective op a call invokes, through aliases if needed.

        A call rooted at a module outside the analyzed set (``np.split``)
        is a library call, never a collective.
        """
        func = call.func
        if self.program.resolve_call(call, self.info)[1]:
            return None
        if isinstance(func, ast.Attribute) and func.attr in COLLECTIVE_CALLS:
            return func.attr
        if isinstance(func, ast.Name) and func.id in COLLECTIVE_CALLS:
            return func.id
        for token in self.tokens(func, env):
            if token.startswith("COLL:"):
                return token[5:]
        return None

    def _arg_tokens(self, call: ast.Call, env) -> List[Tokens]:
        return [self.tokens(arg, env) for arg in call.args] + [
            self.tokens(kw.value, env) for kw in call.keywords
        ]

    def _eval_Call(self, expr: ast.Call, env) -> Tokens:
        func = expr.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr

        args = self._arg_tokens(expr, env)
        merged: Tokens = EMPTY
        for tokens in args:
            merged |= tokens
        # A call result aliases its arguments only through a summary.
        merged -= ALIAS

        # Nondeterminism sources.
        nd = self._nondet_kind(expr)
        if nd is not None:
            return merged | {f"ND:{nd}"}
        # Rank identity.
        if name in RANK_CALLS:
            return merged | {RANK}
        # Collectives (incl. aliased): symmetric results are clean.
        op = self._collective_op(expr, env)
        if op is not None:
            payload = merged - {"SET"}
            if op in EXCHANGE_CALLS:
                payload |= {INBOX}
            elif op in RECEIVE_CALLS:
                payload |= {PAYLOAD}
            if op in ASYMMETRIC_COLLECTIVES:
                return payload | {RANK}
            if op in SYMMETRIC_COLLECTIVES:
                return payload - {RANK}
            return payload
        # Order-insensitive reductions launder set order (and sorted() also
        # launders a previously frozen arbitrary order).
        if name in ORDER_INSENSITIVE:
            return merged - {"SET", "ND:set"}
        if name in SEQUENCING:
            if any("SET" in tokens for tokens in args):
                return (merged - {"SET"}) | {"ND:set"}
            return merged
        if name in SET_PRODUCERS:
            receiver = (
                self.tokens(func.value, env) - ALIAS
                if isinstance(func, ast.Attribute)
                else EMPTY
            )
            if name == "keys" and "SET" not in receiver:
                return merged | receiver  # dict order is insertion order
            return merged | receiver | {"SET"}
        resolved, external = self.program.resolve_call(expr, self.info)
        if resolved:
            # Analyzed functions: substitute argument tokens into the summary.
            out: Tokens = EMPTY
            for target in resolved:
                out |= self._substitute(target, expr, env)
        else:
            # Unknown call: taint flows args+receiver -> result, but a result
            # is neither a bound collective nor (without evidence) an
            # unordered set; a method result aliases its receiver unless the
            # method is a copy.
            if isinstance(func, ast.Attribute):
                receiver = _derive(self.tokens(func.value, env))
                merged |= receiver - ALIAS if name in COPY_CALLS else receiver
            out = frozenset(
                t for t in merged if not t.startswith(("COLL:", "DIRTY:"))
            ) - {"SET"}
        if name in RECEIVE_CALLS and not external:
            out |= {PAYLOAD}
        return out

    def _substitute(
        self, target: FunctionInfo, call: ast.Call, env
    ) -> Tokens:
        summary = self.summaries.get(id(target.node))
        if summary is None:
            return EMPTY
        actuals = self.call_arg_tokens(target, call, env)
        out: Set[str] = set()
        for token in summary.ret:
            if token.startswith("P:"):
                index = int(token[2:])
                if 0 <= index < len(actuals):
                    out |= actuals[index] - ALIAS
            else:
                out.add(token)
        return frozenset(out)

    def call_arg_tokens(
        self, target: FunctionInfo, call: ast.Call, env
    ) -> List[Tokens]:
        """Actual tokens per *parameter index* of ``target`` for this call."""
        params = target.param_names()
        actuals: List[Tokens] = [EMPTY] * len(params)
        offset = 0
        if target.is_method and isinstance(call.func, ast.Attribute):
            if params:
                actuals[0] = self.tokens(call.func.value, env)
            offset = 1
        for i, arg in enumerate(call.args):
            index = i + offset
            if index < len(actuals):
                actuals[index] = self.tokens(arg, env)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                actuals[params.index(kw.arg)] = self.tokens(kw.value, env)
        return actuals

    def _nondet_kind(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return "id"
            if func.id == "hash":
                return "hash"
            if func.id in ("perf_counter", "monotonic", "time_ns"):
                return "time"
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            if base in ("time", "datetime") and func.attr in _ND_TIME_ATTRS:
                return "time"
            if base in _ND_MODULES:
                return "random"
            if base == "os" and func.attr == "urandom":
                return "random"
            if base == "uuid" and func.attr in ("uuid1", "uuid4"):
                return "random"
            if base == "secrets":
                return "random"
        return None


def _target_names(target: ast.AST):
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            yield sub.id


def _bind(
    target: ast.AST,
    value_tokens: Tokens,
    env: Dict[str, Tokens],
) -> None:
    if isinstance(target, ast.Name):
        env[target.id] = value_tokens
    elif isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            env[f"self.{target.attr}"] = value_tokens
    elif isinstance(target, ast.Starred):
        _bind(target.value, value_tokens, env)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind(elt, value_tokens, env)
    # Subscript stores do not rebind the container's tokens.


def _receiver_name(func: ast.AST) -> Optional[str]:
    """Base name of a method receiver or store target (``f.x.m`` -> ``f``,
    ``p["k"]`` -> ``p``)."""
    expr = (
        func.value
        if isinstance(func, (ast.Attribute, ast.Subscript))
        else None
    )
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _effect_roots(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions a statement evaluates *itself*.

    Compound statements contribute only their headers — their bodies flow
    through the CFG as separate blocks, so walking them here would apply
    body effects unconditionally (e.g. a ``synchronize`` under ``if`` would
    wrongly clear DIRTY on the skip path too).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        return []
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []
    return [stmt]


def _field_effects(
    stmt: ast.stmt, env: Dict[str, Tokens], program: Program
) -> None:
    """Apply DIRTY/sync effects of calls a statement itself evaluates."""
    for root in _effect_roots(stmt):
        for call in program.calls(root):
            _field_effect(call, env)


def _field_effect(call: ast.Call, env: Dict[str, Tokens]) -> None:
    func = call.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        receiver = _receiver_name(func)
    elif isinstance(func, ast.Name):
        name = func.id
        receiver = None
    else:
        return
    if name in SYNC_CALLS:
        targets = [receiver] if receiver is not None else []
        targets += [arg.id for arg in call.args if isinstance(arg, ast.Name)]
        for target in targets:
            if target in env:
                env[target] = frozenset(
                    t for t in env[target] if not t.startswith("DIRTY:")
                )
    elif name in FIELD_MUTATORS and receiver is not None:
        env[receiver] = env.get(receiver, EMPTY) | {f"DIRTY:{call.lineno}"}


def make_transfer(evaluator: Evaluator):
    """Per-statement transfer for :func:`repro.analysis.cfg.dataflow`."""

    def transfer(
        stmt: ast.stmt, env: Dict[str, Tokens]
    ) -> Dict[str, Tokens]:
        env = dict(env)
        if isinstance(stmt, ast.Assign):
            tokens = evaluator.tokens(stmt.value, env)
            if (
                isinstance(stmt.value, (ast.Tuple, ast.List))
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], (ast.Tuple, ast.List))
                and len(stmt.targets[0].elts) == len(stmt.value.elts)
            ):
                for tgt, val in zip(
                    stmt.targets[0].elts, stmt.value.elts
                ):
                    _bind(tgt, evaluator.tokens(val, env), env)
            else:
                for target in stmt.targets:
                    _bind(target, tokens, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            _bind(stmt.target, evaluator.tokens(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            extra = evaluator.tokens(stmt.value, env) - ALIAS
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = env.get(stmt.target.id, EMPTY) | extra
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            bound = _iterated(evaluator.tokens(stmt.iter, env))
            for name in _target_names(stmt.target):
                env[name] = bound
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    _bind(
                        item.optional_vars,
                        evaluator.tokens(item.context_expr, env),
                        env,
                    )
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                env[stmt.name] = EMPTY
        _field_effects(stmt, env, evaluator.program)
        return env

    return transfer


def initial_env(info: FunctionInfo) -> Dict[str, Tokens]:
    """Parameter environment: each parameter bound to its symbolic token."""
    env: Dict[str, Tokens] = {}
    for index, name in enumerate(info.param_names()):
        tokens: Set[str] = {f"P:{index}"}
        if _rank_named(name):
            tokens.add(RANK)
        env[name] = frozenset(tokens)
    return env
