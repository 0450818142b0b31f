"""The §IV-E nesting-reduction optimization and the recursion check."""

import pytest

from repro.arch.executor import Executor
from repro.arch.state import to_signed
from repro.core import simulate
from repro.lang import ast
from repro.lang.compiler import compile_source
from repro.lang.errors import TaintError
from repro.lang.optimize import collapse_nested_ifs, count_collapsible
from repro.lang.parser import parse

NESTED = """
secret int a = 1;
secret int b = 1;
int result = 0;

void main() {
  int acc = 0;
  if (a) {
    if (b) {
      acc = acc + 5;
    }
  }
  result = acc;
}
"""


def test_count_collapsible():
    assert count_collapsible(parse(NESTED)) == 1


def test_collapse_merges_conditions():
    module = collapse_nested_ifs(parse(NESTED))
    ifs = [stmt for stmt in ast.walk_stmts(module.func("main").body)
           if isinstance(stmt, ast.If)]
    assert len(ifs) == 1
    assert isinstance(ifs[0].cond, ast.Binary)
    assert ifs[0].cond.op == "&&"


def test_collapse_reduces_sjmp_count():
    without = compile_source(NESTED, mode="sempe")
    with_opt = compile_source(NESTED, mode="sempe", collapse_ifs=True)
    assert without.program.count_secure_branches() == 2
    assert with_opt.program.count_secure_branches() == 1


def test_collapse_preserves_semantics():
    for a in (0, 1):
        for b in (0, 1):
            results = []
            for collapse in (False, True):
                compiled = compile_source(NESTED, mode="sempe",
                                          collapse_ifs=collapse)
                executor = Executor(compiled.program, sempe=True)
                executor.state.memory.store(compiled.program.symbols["a"], a)
                executor.state.memory.store(compiled.program.symbols["b"], b)
                executor.run_to_completion()
                results.append(to_signed(executor.state.memory.load(
                    compiled.program.symbols["result"])))
            assert results[0] == results[1] == (5 if a and b else 0)


def test_collapse_reduces_drains():
    """Collapsing the two-deep chain lowers the drains (6 -> 3), the
    nesting depth (2 -> 1) and the cycles (563 -> 533) on the SeMPE
    machine."""
    without, with_opt = (
        simulate(compile_source(NESTED, mode="sempe",
                                collapse_ifs=collapse).program,
                 defense="sempe")
        for collapse in (False, True))
    assert with_opt.functional.drains < without.functional.drains
    assert with_opt.functional.max_nesting < without.functional.max_nesting
    assert with_opt.cycles < without.cycles


def test_collapse_skips_else_branches():
    source = """
    secret int a = 1;
    int result = 0;
    void main() {
      if (a) {
        if (a) { result = 1; } else { result = 2; }
      }
    }
    """
    assert count_collapsible(parse(source)) == 0


def test_collapse_skips_multi_statement_bodies():
    source = """
    secret int a = 1;
    int result = 0;
    void main() {
      if (a) {
        result = 1;
        if (a) { result = 2; }
      }
    }
    """
    assert count_collapsible(parse(source)) == 0


def test_collapse_chains_three_deep():
    source = """
    secret int a = 1;
    int result = 0;
    void main() {
      if (a) { if (a) { if (a) { result = 9; } } }
    }
    """
    compiled = compile_source(source, mode="sempe", collapse_ifs=True)
    assert compiled.program.count_secure_branches() == 1


def test_recursive_secure_branch_rejected():
    source = """
    secret int key = 1;
    int walk(int n) {
      int out = 0;
      if (key) { out = 1; }
      if (n > 0) { out = out + walk(n - 1); }
      return out;
    }
    void main() { int x = walk(3); }
    """
    with pytest.raises(TaintError, match="recursive"):
        compile_source(source, mode="sempe")


def test_mutually_recursive_secure_branch_rejected():
    source = """
    secret int key = 1;
    int ping(int n);
    """
    source = """
    secret int key = 1;
    int pong(int n) {
      int out = 0;
      if (n > 0) { out = ping(n - 1); }
      return out;
    }
    int ping(int n) {
      int out = 0;
      if (key) { out = 1; }
      if (n > 0) { out = out + pong(n - 1); }
      return out;
    }
    void main() { int x = ping(3); }
    """
    with pytest.raises(TaintError, match="recursive"):
        compile_source(source, mode="sempe")


def test_recursion_without_secret_branch_allowed():
    source = """
    secret int key = 1;
    int sink = 0;
    int fact(int n) {
      int r = 1;
      if (n > 1) { r = n * fact(n - 1); }
      return r;
    }
    void main() {
      if (key) {
        int v = fact(5);
        sink = sink + v;
      }
    }
    """
    compile_source(source, mode="sempe")   # no exception
