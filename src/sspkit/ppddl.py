"""PPDDL-subset front end: tokenizer, domain/problem parser, pretty printer.

Supported subset: :strips, :typing, :equality, :negative-preconditions and
flat :probabilistic-effects. Conditional effects, quantifiers, rewards,
fluents, axioms and domain constants are rejected with a named-feature error.
Probabilities are kept as exact rationals end to end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, TypeMismatchError, UnsupportedFeatureError

ROOT_TYPE = "object"

_WORD_RE = re.compile(r"[^\s();]+")
_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$|^\d+/\d+$")


@dataclass(frozen=True)
class Token:
    value: str
    line: int
    col: int


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Split PPDDL text into '(' / ')' / word tokens with positions.

    Identifiers are case-insensitive and lowercased here; ';' starts a
    comment running to end of line.
    """
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(Token(ch, line, col))
            i += 1
            col += 1
        else:
            m = _WORD_RE.match(text, i)
            if m is None:
                raise ParseError(f"stray character {ch!r}", filename, line, col)
            word = m.group(0)
            tokens.append(Token(word.lower(), line, col))
            i = m.end()
            col += len(word)
    return tokens


def read_sexps(tokens: list[Token], filename: str = "<input>") -> list:
    """Build nested lists from the token stream. Leaves are Tokens."""
    stack: list[list] = [[]]
    opens: list[Token] = []
    for tok in tokens:
        if tok.value == "(":
            stack.append([])
            opens.append(tok)
        elif tok.value == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", filename, tok.line, tok.col)
            done = stack.pop()
            opens.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        tok = opens[-1]
        raise ParseError("unclosed '('", filename, tok.line, tok.col)
    return stack[0]


# ── schema-level AST ─────────────────────────────────────────────────────────

@dataclass(frozen=True, order=True)
class Atom:
    """A (possibly lifted) predicate application."""

    pred: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"({self.pred})"
        return f"({self.pred} {' '.join(self.args)})"


@dataclass(frozen=True, order=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"(not {self.atom})" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Outcome:
    """One effect alternative: probability plus add/delete lists."""

    probability: Fraction
    add: tuple[Atom, ...] = ()
    delete: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class ProbabilisticClause:
    """A flat probabilistic effect: a list of mutually exclusive outcomes.

    Explicit probabilities may sum to less than 1; the residual mass is an
    implicit no-op outcome materialized by ``effective_outcomes``.
    """

    outcomes: tuple[Outcome, ...]

    def probability_sum(self) -> Fraction:
        return sum((o.probability for o in self.outcomes), Fraction(0))

    def effective_outcomes(self) -> tuple[Outcome, ...]:
        residual = 1 - self.probability_sum()
        if residual > 0:
            return self.outcomes + (Outcome(residual),)
        return self.outcomes

    def effective_count(self) -> int:
        return len(self.effective_outcomes())


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    parameters: tuple[tuple[str, str], ...]  # (variable, type) pairs
    precondition: tuple[Literal, ...]
    clauses: tuple[ProbabilisticClause, ...]
    # (a, b, must_equal) filters from :equality; a/b are variables or objects
    equalities: tuple[tuple[str, str, bool], ...] = ()
    cost: Fraction = Fraction(1)


@dataclass(frozen=True)
class DomainSchema:
    name: str
    requirements: tuple[str, ...]
    types: dict[str, str]  # type -> parent type
    predicates: tuple[Predicate, ...]
    action_schemas: tuple[ActionSchema, ...]

    def predicate(self, name: str) -> Predicate | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    def schema(self, name: str) -> ActionSchema | None:
        for a in self.action_schemas:
            if a.name == name:
                return a
        return None

    def is_subtype(self, t: str, ancestor: str) -> bool:
        if ancestor == ROOT_TYPE:
            return True
        seen = set()
        while True:
            if t == ancestor:
                return True
            if t == ROOT_TYPE or t not in self.types or t in seen:
                return False
            seen.add(t)
            t = self.types[t]


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type) pairs
    init: tuple[Atom, ...]
    goal: tuple[Atom, ...]


# ── parsing helpers ──────────────────────────────────────────────────────────

_UNSUPPORTED_HEADS = {
    "when", "forall", "exists", "imply", "or", "oneof",
    "increase", "decrease", "assign", "scale-up", "scale-down",
}


class _Ctx:
    def __init__(self, filename: str):
        self.filename = filename
        self.seen: set[str] = set()

    def fail(self, message: str, at=None) -> ParseError:
        tok = _first_token(at)
        if tok is None:
            return ParseError(message, self.filename)
        return ParseError(message, self.filename, tok.line, tok.col)

    def unsupported(self, feature: str, at=None) -> UnsupportedFeatureError:
        tok = _first_token(at)
        if tok is None:
            return UnsupportedFeatureError(feature, self.filename)
        return UnsupportedFeatureError(feature, self.filename, tok.line, tok.col)

    def once(self, what: str, at) -> None:
        """Raise on a second ``what``: it would replace or shadow the first."""
        if what in self.seen:
            raise self.fail(f"duplicate {what}", at)
        self.seen.add(what)


def _first_token(node):
    if isinstance(node, Token):
        return node
    if isinstance(node, list):
        for item in node:
            tok = _first_token(item)
            if tok is not None:
                return tok
    return None


def _word(node, ctx: _Ctx, what: str) -> str:
    if not isinstance(node, Token) or node.value in "()":
        raise ctx.fail(f"expected {what}", node)
    return node.value


def _parse_typed_list(items: list, ctx: _Ctx, *, variables: bool) -> list[tuple[str, str]]:
    """Parse ``a b - t c d - u e`` into (name, type) pairs; default type object."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        node = items[i]
        if isinstance(node, list):
            raise ctx.unsupported("either", node)
        word = node.value
        if word == "-":
            if i + 1 >= len(items):
                raise ctx.fail("expected type after '-'", node)
            tnode = items[i + 1]
            if isinstance(tnode, list):
                raise ctx.unsupported("either", tnode)
            for name in pending:
                out.append((name, tnode.value))
            pending = []
            i += 2
        else:
            if variables and not word.startswith("?"):
                raise ctx.fail(f"expected variable, got {word!r}", node)
            if not variables and word.startswith("?"):
                raise ctx.fail(f"unexpected variable {word!r}", node)
            pending.append(word)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


def _parse_atom(node, ctx: _Ctx) -> Atom:
    if not isinstance(node, list) or not node:
        raise ctx.fail("expected atom", node)
    head = _word(node[0], ctx, "predicate name")
    if head in _UNSUPPORTED_HEADS:
        raise ctx.unsupported(head, node)
    args = tuple(_word(a, ctx, "argument") for a in node[1:])
    return Atom(head, args)


def _flatten_and(node, ctx: _Ctx) -> list:
    """Return the conjuncts of a formula; a bare form is its own conjunct."""
    if isinstance(node, list) and node and isinstance(node[0], Token) and node[0].value == "and":
        out = []
        for sub in node[1:]:
            out.extend(_flatten_and(sub, ctx))
        return out
    return [node]


def _parse_precondition(node, ctx: _Ctx):
    literals: list[Literal] = []
    equalities: list[tuple[str, str, bool]] = []
    for form in _flatten_and(node, ctx):
        if not isinstance(form, list) or not form:
            raise ctx.fail("expected precondition literal", form)
        head = form[0].value if isinstance(form[0], Token) else ""
        if head == "not":
            if len(form) != 2 or not isinstance(form[1], list):
                raise ctx.fail("malformed (not ...)", form)
            inner = form[1]
            ih = inner[0].value if inner and isinstance(inner[0], Token) else ""
            if ih == "=":
                a = _word(inner[1], ctx, "term")
                b = _word(inner[2], ctx, "term")
                equalities.append((a, b, False))
            else:
                literals.append(Literal(_parse_atom(inner, ctx), negated=True))
        elif head == "=":
            if len(form) != 3:
                raise ctx.fail("malformed (= ...)", form)
            a = _word(form[1], ctx, "term")
            b = _word(form[2], ctx, "term")
            equalities.append((a, b, True))
        elif head in _UNSUPPORTED_HEADS:
            raise ctx.unsupported(head, form)
        else:
            literals.append(Literal(_parse_atom(form, ctx)))
    return tuple(literals), tuple(equalities)


def _parse_simple_effect(node, ctx: _Ctx) -> tuple[list[Atom], list[Atom]]:
    """Parse a conjunction of add/delete literals (no probabilistic parts)."""
    adds: list[Atom] = []
    dels: list[Atom] = []
    for form in _flatten_and(node, ctx):
        if not isinstance(form, list) or not form:
            raise ctx.fail("expected effect literal", form)
        head = form[0].value if isinstance(form[0], Token) else ""
        if head == "not":
            if len(form) != 2 or not isinstance(form[1], list):
                raise ctx.fail("malformed (not ...)", form)
            dels.append(_parse_atom(form[1], ctx))
        elif head == "probabilistic":
            raise ctx.unsupported("nested probabilistic", form)
        elif head in _UNSUPPORTED_HEADS:
            raise ctx.unsupported(head, form)
        else:
            adds.append(_parse_atom(form, ctx))
    return adds, dels


def _parse_probability(tok, ctx: _Ctx) -> Fraction:
    word = _word(tok, ctx, "probability")
    if not _NUMBER_RE.match(word):
        raise ctx.fail(f"expected probability, got {word!r}", tok)
    p = Fraction(word)
    if p < 0 or p > 1:
        raise ctx.fail(f"probability {word} outside [0, 1]", tok)
    return p


def _normalize_effect(adds: list[Atom], dels: list[Atom]) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
    """Deduplicate and make add/delete disjoint (add wins on conflict)."""
    add_t = tuple(dict.fromkeys(adds))
    del_t = tuple(a for a in dict.fromkeys(dels) if a not in set(add_t))
    return add_t, del_t


def _parse_effect(node, ctx: _Ctx) -> tuple[ProbabilisticClause, ...]:
    """Parse an action effect into probabilistic clauses.

    Deterministic conjuncts are folded into the first clause's outcomes
    (materializing the residual outcome when needed) so that, e.g., a move
    action with one 0.5-probability side effect presents as a single clause
    with two 0.5 outcomes. A fully deterministic effect becomes one clause
    with a single probability-1 outcome.
    """
    det_adds: list[Atom] = []
    det_dels: list[Atom] = []
    clauses: list[list[Outcome]] = []
    for form in _flatten_and(node, ctx):
        if not isinstance(form, list) or not form:
            raise ctx.fail("expected effect", form)
        head = form[0].value if isinstance(form[0], Token) else ""
        if head == "probabilistic":
            body = form[1:]
            if len(body) % 2 != 0:
                raise ctx.fail("probabilistic effect needs (p effect) pairs", form)
            outcomes: list[Outcome] = []
            total = Fraction(0)
            for i in range(0, len(body), 2):
                p = _parse_probability(body[i], ctx)
                adds, dels = _parse_simple_effect(body[i + 1], ctx)
                total += p
                if p == 0:
                    continue  # zero-probability outcomes are dropped
                add_t, del_t = _normalize_effect(adds, dels)
                outcomes.append(Outcome(p, add_t, del_t))
            if total > 1:
                raise ctx.fail(f"outcome probabilities sum to {total} > 1", form)
            clauses.append(outcomes)
        elif head == "not":
            if len(form) != 2 or not isinstance(form[1], list):
                raise ctx.fail("malformed (not ...)", form)
            det_dels.append(_parse_atom(form[1], ctx))
        elif head in _UNSUPPORTED_HEADS:
            raise ctx.unsupported(head, form)
        else:
            det_adds.append(_parse_atom(form, ctx))

    add_t, del_t = _normalize_effect(det_adds, det_dels)
    if not clauses:
        return (ProbabilisticClause((Outcome(Fraction(1), add_t, del_t),)),)
    if add_t or del_t:
        first = clauses[0]
        folded = []
        explicit = Fraction(0)
        for o in first:
            fa, fd = _normalize_effect(list(o.add) + list(add_t), list(o.delete) + list(del_t))
            folded.append(Outcome(o.probability, fa, fd))
            explicit += o.probability
        if explicit < 1:
            folded.append(Outcome(1 - explicit, add_t, del_t))
        clauses[0] = folded
    return tuple(ProbabilisticClause(tuple(c)) for c in clauses)


# ── domain / problem parsing ────────────────────────────────────────────────

def parse_domain(text: str, filename: str = "<domain>") -> DomainSchema:
    """Parse PPDDL domain text into a DomainSchema.

    Raises ParseError (with position) on malformed input and
    UnsupportedFeatureError on constructs outside the subset.
    """
    ctx = _Ctx(filename)
    forms = read_sexps(tokenize(text, filename), filename)
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise ctx.fail("expected a single (define ...) form", forms)
    top = forms[0]
    if len(top) < 2 or _word(top[0], ctx, "define") != "define":
        raise ctx.fail("expected (define ...)", top)
    head = top[1]
    if not isinstance(head, list) or len(head) != 2 or head[0].value != "domain":
        raise ctx.fail("expected (domain <name>)", head)
    name = _word(head[1], ctx, "domain name")

    requirements: tuple[str, ...] = ()
    types: dict[str, str] = {}
    predicates: list[Predicate] = []
    actions: list[ActionSchema] = []

    for section in top[2:]:
        if not isinstance(section, list) or not section:
            raise ctx.fail("expected a domain section", section)
        key = _word(section[0], ctx, "section keyword")
        if key == ":requirements":
            ctx.once(f"{key} section", section[0])
            requirements = tuple(_word(t, ctx, "requirement") for t in section[1:])
        elif key == ":types":
            for tname, parent in _parse_typed_list(section[1:], ctx, variables=False):
                types[tname] = parent
            _check_type_hierarchy(types, ctx, section)
        elif key == ":predicates":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    raise ctx.fail("expected predicate declaration", form)
                pname = _word(form[0], ctx, "predicate name")
                params = tuple(_parse_typed_list(form[1:], ctx, variables=True))
                ctx.once(f"predicate {pname!r}", form)
                predicates.append(Predicate(pname, params))
        elif key == ":constants":
            raise ctx.unsupported(":constants", section)
        elif key == ":functions":
            raise ctx.unsupported(":functions", section)
        elif key == ":action":
            actions.append(_parse_action(section, ctx, types))
        else:
            raise ctx.unsupported(key, section)

    schema = DomainSchema(name, requirements, types, tuple(predicates), tuple(actions))
    _check_schema(schema, ctx)
    return schema


def _check_type_hierarchy(types: dict[str, str], ctx: _Ctx, at) -> None:
    for start in types:
        seen = {start}
        t = types[start]
        while t in types:
            if t in seen:
                raise ctx.fail(f"type hierarchy cycle through {t!r}", at)
            seen.add(t)
            t = types[t]


def _parse_action(section: list, ctx: _Ctx, types: dict[str, str]) -> ActionSchema:
    if len(section) < 2:
        raise ctx.fail("expected action name", section)
    name = _word(section[1], ctx, "action name")
    ctx.once(f"action {name!r}", section[1])
    params: tuple[tuple[str, str], ...] = ()
    precondition: tuple[Literal, ...] = ()
    equalities: tuple[tuple[str, str, bool], ...] = ()
    clauses = (ProbabilisticClause((Outcome(Fraction(1)),)),)
    i = 2
    while i < len(section):
        key = _word(section[i], ctx, "action keyword")
        if i + 1 >= len(section):
            raise ctx.fail(f"missing body after {key}", section[i])
        ctx.once(f"{key} in action {name!r}", section[i])
        body = section[i + 1]
        if key == ":parameters":
            if not isinstance(body, list):
                raise ctx.fail("expected parameter list", body)
            params = tuple(_parse_typed_list(body, ctx, variables=True))
        elif key == ":precondition":
            precondition, equalities = _parse_precondition(body, ctx)
        elif key == ":effect":
            clauses = _parse_effect(body, ctx)
        else:
            raise ctx.unsupported(key, section[i])
        i += 2
    variables = [v for v, _ in params]
    if len(set(variables)) != len(variables):
        raise ctx.fail(f"duplicate parameter in action {name!r}", section)
    for _, tname in params:
        if tname != ROOT_TYPE and tname not in types:
            raise ctx.fail(f"undeclared type {tname!r} in action {name!r}", section)
    return ActionSchema(name, params, precondition, clauses, equalities)


def _check_schema(schema: DomainSchema, ctx: _Ctx) -> None:
    preds = {p.name: p for p in schema.predicates}
    for action in schema.action_schemas:
        declared = {v for v, _ in action.parameters}

        def check_atom(atom: Atom, where: str) -> None:
            pred = preds.get(atom.pred)
            if pred is None:
                raise ctx.fail(f"undeclared predicate {atom.pred!r} in {where}")
            if pred.arity != len(atom.args):
                raise ctx.fail(
                    f"predicate {atom.pred!r} used with arity {len(atom.args)} "
                    f"(declared {pred.arity}) in {where}")
            for arg in atom.args:
                if arg.startswith("?") and arg not in declared:
                    raise ctx.fail(f"unbound variable {arg!r} in {where}")

        where = f"action {action.name!r}"
        for lit in action.precondition:
            check_atom(lit.atom, where)
        for a, b, _ in action.equalities:
            for term in (a, b):
                if term.startswith("?") and term not in declared:
                    raise ctx.fail(f"unbound variable {term!r} in {where}")
        for clause in action.clauses:
            for outcome in clause.outcomes:
                for atom in outcome.add + outcome.delete:
                    check_atom(atom, where)


def parse_problem(text: str, schema: DomainSchema,
                  filename: str = "<problem>") -> ProblemDef:
    """Parse PPDDL problem text and type-check it against the domain schema."""
    ctx = _Ctx(filename)
    forms = read_sexps(tokenize(text, filename), filename)
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise ctx.fail("expected a single (define ...) form", forms)
    top = forms[0]
    if len(top) < 2 or _word(top[0], ctx, "define") != "define":
        raise ctx.fail("expected (define ...)", top)
    head = top[1]
    if not isinstance(head, list) or len(head) != 2 or head[0].value != "problem":
        raise ctx.fail("expected (problem <name>)", head)
    name = _word(head[1], ctx, "problem name")

    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: list[Atom] = []
    goal: tuple[Atom, ...] = ()

    for section in top[2:]:
        if not isinstance(section, list) or not section:
            raise ctx.fail("expected a problem section", section)
        key = _word(section[0], ctx, "section keyword")
        if key != ":init":  # repeated :init sections merge
            ctx.once(f"{key} section", section[0])
        if key in (":domain", ":goal") and len(section) != 2:
            raise ctx.fail(f"expected one body after {key}", section)
        if key == ":domain":
            domain_name = _word(section[1], ctx, "domain name")
        elif key == ":objects":
            objects = tuple(_parse_typed_list(section[1:], ctx, variables=False))
        elif key == ":init":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    raise ctx.fail("expected init atom", form)
                h = form[0].value if isinstance(form[0], Token) else ""
                if h in ("not", "probabilistic", "="):
                    raise ctx.unsupported(f"{h} in :init", form)
                init.append(_parse_atom(form, ctx))
        elif key == ":goal":
            goal = _parse_goal(section[1], ctx)
        elif key == ":metric":
            raise ctx.unsupported(":metric", section)
        else:
            raise ctx.unsupported(key, section)

    problem = ProblemDef(name, domain_name, objects, tuple(dict.fromkeys(init)), goal)
    _check_problem(problem, schema)
    return problem


def _parse_goal(node, ctx: _Ctx) -> tuple[Atom, ...]:
    goals: list[Atom] = []
    for form in _flatten_and(node, ctx):
        if not isinstance(form, list):
            raise ctx.fail("expected goal atom", form)
        if not form:
            continue  # empty (and) — vacuous goal
        h = form[0].value if isinstance(form[0], Token) else ""
        if h == "not":
            raise ctx.unsupported("negative goal", form)
        if h in _UNSUPPORTED_HEADS:
            raise ctx.unsupported(h, form)
        goals.append(_parse_atom(form, ctx))
    return tuple(dict.fromkeys(goals))


def _check_problem(problem: ProblemDef, schema: DomainSchema) -> None:
    if problem.domain_name and problem.domain_name != schema.name:
        raise TypeMismatchError(
            f"problem {problem.name!r} references domain {problem.domain_name!r}, "
            f"expected {schema.name!r}")
    obj_types: dict[str, str] = {}
    for obj, tname in problem.objects:
        if obj in obj_types:
            raise TypeMismatchError(f"duplicate object {obj!r}")
        if tname != ROOT_TYPE and tname not in schema.types:
            raise TypeMismatchError(f"object {obj!r} has undeclared type {tname!r}")
        obj_types[obj] = tname

    def check_ground_atom(atom: Atom, where: str) -> None:
        pred = schema.predicate(atom.pred)
        if pred is None:
            raise TypeMismatchError(f"undeclared predicate {atom.pred!r} in {where}")
        if pred.arity != len(atom.args):
            raise TypeMismatchError(
                f"predicate {atom.pred!r} used with arity {len(atom.args)} "
                f"(declared {pred.arity}) in {where}")
        for arg, (_, ptype) in zip(atom.args, pred.params):
            if arg not in obj_types:
                raise TypeMismatchError(f"undeclared object {arg!r} in {where}")
            if not schema.is_subtype(obj_types[arg], ptype):
                raise TypeMismatchError(
                    f"object {arg!r} of type {obj_types[arg]!r} where "
                    f"{ptype!r} expected in {where}")

    for atom in problem.init:
        check_ground_atom(atom, ":init")
    for atom in problem.goal:
        check_ground_atom(atom, ":goal")


# ── pretty printing ──────────────────────────────────────────────────────────

def _typed_list_text(pairs) -> str:
    return " ".join(f"{name} - {tname}" for name, tname in pairs)


def _effect_literals_text(outcome: Outcome) -> list[str]:
    parts = [str(a) for a in outcome.add]
    parts += [f"(not {a})" for a in outcome.delete]
    return parts


def _conj(parts: list[str]) -> str:
    if not parts:
        return "(and)"
    if len(parts) == 1:
        return parts[0]
    return "(and " + " ".join(parts) + ")"


def domain_to_text(schema: DomainSchema) -> str:
    """Render a DomainSchema as PPDDL text that re-parses to an equal schema."""
    lines = [f"(define (domain {schema.name})"]
    if schema.requirements:
        lines.append("  (:requirements " + " ".join(schema.requirements) + ")")
    if schema.types:
        lines.append("  (:types " + _typed_list_text(schema.types.items()) + ")")
    if schema.predicates:
        decls = " ".join(
            f"({p.name} {_typed_list_text(p.params)})" if p.params else f"({p.name})"
            for p in schema.predicates)
        lines.append("  (:predicates " + decls + ")")
    for action in schema.action_schemas:
        lines.append(f"  (:action {action.name}")
        lines.append(f"    :parameters ({_typed_list_text(action.parameters)})")
        pre = [str(lit) for lit in action.precondition]
        pre += [f"(= {a} {b})" if eq else f"(not (= {a} {b}))"
                for a, b, eq in action.equalities]
        lines.append("    :precondition " + _conj(pre))
        lines.append("    :effect " + _effect_text(action) + ")")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _probability_text(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def _effect_text(action: ActionSchema) -> str:
    parts = []
    for clause in action.clauses:
        if len(clause.outcomes) == 1 and clause.outcomes[0].probability == 1:
            parts.extend(_effect_literals_text(clause.outcomes[0]))
        else:
            alt = []
            for o in clause.outcomes:
                alt.append(_probability_text(o.probability))
                alt.append(_conj(_effect_literals_text(o)))
            parts.append("(probabilistic " + " ".join(alt) + ")")
    return _conj(parts)


def problem_to_text(problem: ProblemDef) -> str:
    """Render a ProblemDef as PPDDL text."""
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        lines.append("  (:objects " + _typed_list_text(problem.objects) + ")")
    lines.append("  (:init " + " ".join(str(a) for a in problem.init) + ")")
    lines.append("  (:goal " + _conj([str(a) for a in problem.goal]) + ")")
    lines.append(")")
    return "\n".join(lines) + "\n"
