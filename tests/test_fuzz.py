"""Fixed-seed mutation fuzz over the three kinds of outside input: PPDDL
text, determinization text and stdio client lines. Malformed input must end
in a named error (or, on the stdio protocol, a forfeited round), never in
any other exception."""

import io
import json
import random

import pytest

from sspkit import (SspkitError, ground, mlo_determinization, parse_domain,
                    parse_problem, serve_rounds)
from sspkit.domains import gen_chain, gen_retry, gen_trap, gen_triangle_tireworld
from sspkit.errors import ParseError
from sspkit.ppddl import _TOKEN_RE
from sspkit.reduction import Determinization

from conftest import load

CHAIN_DOMAIN, CHAIN_PROBLEM = gen_chain(3)
SOURCES = {
    "triangle-1": gen_triangle_tireworld(1),
    "chain-3": (CHAIN_DOMAIN, CHAIN_PROBLEM),
    # the only source with (=), so that mutations reach the equality branch
    "chain-3-equality": (
        CHAIN_DOMAIN.replace(":typing)", ":typing :equality)").replace(
            "(next ?a ?b))", "(next ?a ?b) (not (= ?a ?b)))"),
        CHAIN_PROBLEM),
    "retry": gen_retry(),
    "trap-5": gen_trap(5),
}
# characters that move a mutation across token, section and number shapes
ALPHABET = "() \n\t-?:;=/.,#>0123456789aeknoprt\"[]{}"


def mutate(rng: random.Random, text: str) -> str:
    """Apply one to three random edits: delete, repeat, insert a character,
    or copy a span of the text to another place."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + text[i:j] * rng.randint(2, 3) + text[j:]
        elif op == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        else:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + text[i:j] + text[k:]
    return text


def token_starts(text: str) -> set[tuple[int, int]]:
    """The (line, col) of every token the reader's pattern finds in text."""
    starts, line, line_start = set(), 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m.group() == "\n":
            line, line_start = line + 1, m.end()
        else:
            starts.add((line, m.start() - line_start + 1))
    return starts


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_mutated_ppddl_raises_only_sspkit_errors(name):
    # a parse error names the file being parsed and points at a token of it
    rng = random.Random(f"ppddl/{name}")
    domain_text, problem_text = SOURCES[name]
    parse_errors = 0
    for trial in range(250):
        if trial % 2:
            domain_text_m, problem_text_m = mutate(rng, domain_text), problem_text
        else:
            domain_text_m, problem_text_m = domain_text, mutate(rng, problem_text)
        files = {"domain.ppddl": domain_text_m, "problem.ppddl": problem_text_m}
        parsing = "domain.ppddl"
        try:
            schema = parse_domain(domain_text_m, parsing)
            parsing = "problem.ppddl"
            ground(schema, parse_problem(problem_text_m, schema, parsing))
        except ParseError as exc:
            assert exc.filename == parsing
            assert (exc.line, exc.col) in token_starts(files[parsing]), str(exc)
            parse_errors += 1
        except SspkitError:
            pass
    assert parse_errors


def test_mutated_determinization_raises_only_named_errors():
    rng = random.Random("determinization")
    schema = parse_domain(SOURCES["triangle-1"][0])
    text = mlo_determinization(schema).to_text()
    for _ in range(600):
        try:
            Determinization.from_text(mutate(rng, text)).validate(schema)
        except SspkitError:
            pass


def test_mutated_client_lines_never_break_the_protocol():
    rng = random.Random("stdio")
    _, _, grounded = load(*SOURCES["chain-3"])
    lines = [json.dumps({"action": a.name}) for a in grounded.actions]
    lines.append(json.dumps({"action": None}))
    for _ in range(400):
        sent = "".join(mutate(rng, rng.choice(lines)) + "\n"
                       for _ in range(rng.randint(1, 4)))
        writer = io.StringIO()
        serve_rounds(grounded, io.BytesIO(sent.encode()), writer,
                     rounds=2, seed=0)
        assert json.loads(writer.getvalue().splitlines()[-1])["type"] == "eval"
