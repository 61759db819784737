"""Independent brute-force oracles used only by the test suite.

Everything here is written as plainly as possible (naive loops, bitmask
DP, branch and bound) so it shares no code path with the package under
test.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from cdeoh.dsl import (Binary, Call, Const, EvalError, Name, ParseError, Reduce, Unary, Value,
                       Where, evaluate)
from cdeoh.problems import CandidateFailure


def exhaustive_bin_packing(items, capacity: int) -> int:
    """Exact optimal bin count by branch and bound; intended for <= 10 items."""
    items = sorted(items, reverse=True)
    n = len(items)
    best = n  # one bin per item always works

    def place(i: int, loads: list[int]) -> None:
        nonlocal best
        if len(loads) >= best:
            return
        if i == n:
            best = min(best, len(loads))
            return
        seen = set()
        for b in range(len(loads)):
            if loads[b] + items[i] <= capacity and loads[b] not in seen:
                seen.add(loads[b])
                loads[b] += items[i]
                place(i + 1, loads)
                loads[b] -= items[i]
        loads.append(items[i])
        place(i + 1, loads)
        loads.pop()

    place(0, [])
    return best


def held_karp_cycle(dist) -> float:
    """Exact shortest Hamiltonian cycle length (bitmask DP), n <= ~15."""
    n = len(dist)
    full = 1 << n
    INF = math.inf
    # dp[mask][j]: shortest path from 0 through `mask` ending at j (0 in mask)
    dp = [[INF] * n for _ in range(full)]
    dp[1][0] = 0.0
    for mask in range(1, full):
        if not mask & 1:
            continue
        for j in range(n):
            if not mask & (1 << j):
                continue
            cur = dp[mask][j]
            if cur == INF:
                continue
            for k in range(n):
                if mask & (1 << k):
                    continue
                nm = mask | (1 << k)
                cand = cur + dist[j][k]
                if cand < dp[nm][k]:
                    dp[nm][k] = cand
    best = INF
    for j in range(1, n):
        cand = dp[full - 1][j] + dist[j][0]
        if cand < best:
            best = cand
    return best


def simple_best_fit(items, capacity: int) -> int:
    """Naive best-fit-by-scan online packing; returns bins used."""
    remaining: list[int] = []
    for item in items:
        best_bin, best_slack = -1, None
        for b, rem in enumerate(remaining):
            if rem >= item:
                slack = rem - item
                if best_slack is None or slack < best_slack:
                    best_bin, best_slack = b, slack
        if best_bin < 0:
            remaining.append(capacity - item)
        else:
            remaining[best_bin] -= item
    return len(remaining)


def fast_best_fit(items, capacity: int) -> int:
    """Best fit over the sorted remaining capacities: the tightest bin that
    still fits is the first one >= item.  Returns bins used; fast enough for
    many 1k-item instances."""
    remaining: list[int] = []
    for item in items:
        i = bisect.bisect_left(remaining, item)
        if i == len(remaining):
            bisect.insort(remaining, capacity - item)
        else:
            r = remaining.pop(i)
            bisect.insort(remaining, r - item)
    return len(remaining)


def simple_first_fit(items, capacity: int) -> int:
    remaining: list[int] = []
    for item in items:
        for b, rem in enumerate(remaining):
            if rem >= item:
                remaining[b] -= item
                break
        else:
            remaining.append(capacity - item)
    return len(remaining)


def nearest_neighbor_cycle_length(dist, start: int = 0) -> float:
    """Naive nearest-neighbor tour length (ties to the lowest index)."""
    n = len(dist)
    unvisited = [c for c in range(n) if c != start]
    cur, total = start, 0.0
    while unvisited:
        best, best_d = None, None
        for c in unvisited:
            if best_d is None or dist[cur][c] < best_d:
                best, best_d = c, dist[cur][c]
        total += best_d
        unvisited.remove(best)
        cur = best
    return total + dist[cur][start]


def reference_pack_online(instance, program) -> list[int]:
    """Online packing that calls dsl.evaluate at every step: the differential
    oracle of problems.pack_online.

    Same inputs, tie rule and failure messages; returns the final bin loads.
    """
    cap = instance.capacity
    n = len(instance.items)
    # Per open bin; float64 so the program inputs need no conversion.  Loads
    # are integers <= capacity, so every value stays exact.
    remaining = np.empty(n, dtype=np.float64)
    bin_index = np.arange(n, dtype=np.float64)
    n_open = 0
    for item in instance.items:
        feasible = (remaining[:n_open] >= item).nonzero()[0]
        place_at = -1
        if feasible.size > 0:
            caps = remaining[feasible]
            idxs = bin_index[feasible]
            try:
                out = evaluate(program, {"item": float(item), "cap_remaining": caps, "bin_index": idxs})
            except EvalError as e:
                raise CandidateFailure(str(e)) from e
            if out.kind != "vector":
                raise CandidateFailure(
                    "priority function must return a vector over the feasible bins, got a scalar")
            prio = np.where(np.isnan(out.data), -np.inf, out.data)
            best = int(prio.argmax())  # first max <=> lowest bin_index
            if prio[best] != -np.inf:
                place_at = int(feasible[best])
        if place_at < 0:
            place_at = n_open
            remaining[place_at] = cap
            n_open += 1
        remaining[place_at] -= item
        assert remaining[place_at] >= 0, "bin overfilled"
    loads = cap - remaining[:n_open]
    return [int(x) for x in loads]


def reference_construct_tour(instance, program) -> list[int]:
    """Constructive tour that gathers the unvisited submatrix afresh at every
    step: the differential oracle of problems.construct_tour.

    Same inputs, tie rule and failure messages; `mean_dist_remaining` is the
    row mean of d[np.ix_(u, u)] over the other unvisited cities.
    """
    d = instance.dist
    n = instance.n_cities
    unvisited = list(range(1, n))
    tour = [0]
    cur = 0
    while unvisited:
        u = np.asarray(unvisited, dtype=np.int64)
        sub = d[np.ix_(u, u)]
        if u.size > 1:
            mean_remaining = sub.sum(axis=1) / (u.size - 1)
        else:
            mean_remaining = np.zeros(1)
        inputs = {
            "dist_to_current": d[cur, u],
            "dist_to_start": d[0, u],
            "mean_dist_remaining": mean_remaining,
            "visited_fraction": (n - u.size) / n,
        }
        try:
            out = evaluate(program, inputs)
        except EvalError as e:
            raise CandidateFailure(str(e)) from e
        if out.kind != "vector":
            raise CandidateFailure(
                "priority function must return a vector over the unvisited cities, got a scalar")
        prio = np.where(np.isnan(out.data), -np.inf, out.data)
        pick = 0 if np.all(prio == -np.inf) else int(np.argmax(prio))
        cur = unvisited.pop(pick)
        tour.append(cur)
    return tour


def reference_two_opt(instance, tour) -> list[int]:
    """First-improvement 2-opt that computes every move's gain afresh after
    each move: the differential oracle of problems.two_opt.

    Same threshold, same gain expression and the same row-major choice of the
    first improving (i, j), 1 <= i < j.
    """
    d = instance.dist
    t = np.asarray(tour, dtype=np.int64)
    n = t.shape[0]
    if n < 4:
        return [int(x) for x in t]
    eps = 1e-10 * min(1.0, float(d.max()))
    i_all, j_all = np.triu_indices(n, k=1)
    keep = i_all >= 1  # i=0 moves duplicate (j+1, n-1) pairs
    i_idx, j_idx = i_all[keep], j_all[keep]
    order = np.arange(n)
    while True:
        prev = t[order - 1]        # t[i-1]
        nxt = t[(order + 1) % n]   # t[j+1]
        # delta[i, j] for replacing edges (t[i-1],t[i]) and (t[j],t[j+1])
        delta = (d[prev[:, None], t[None, :]] + d[t[:, None], nxt[None, :]]
                 - d[prev, t][:, None] - d[t, nxt][None, :])
        vals = delta[i_idx, j_idx]
        improving = np.nonzero(vals < -eps)[0]
        if improving.size == 0:
            return [int(x) for x in t]
        first = improving[0]  # lexicographically first (i, j)
        i, j = int(i_idx[first]), int(j_idx[first])
        t[i:j + 1] = t[i:j + 1][::-1]


def top_n_by_fitness(candidates, n: int):
    """Pure fitness ranking with ties to the lowest id."""
    return sorted(candidates, key=lambda c: (-c.fitness, c.id))[:n]


# ---------------------------------------------------------------- expression language

def reference_tokenize(source: str) -> list[tuple[str, str, int]]:
    """A character loop over `source`: the differential oracle of the scanner
    of cdeoh.dsl.

    Returns its (kind, text, offset) tokens, ending in ("eof", "", len), or
    raises the same ParseError on the first character no token starts with.
    """
    toks = []
    i, n = 0, len(source)
    digits = "0123456789"
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if c in digits or (c == "." and i + 1 < n and source[i + 1] in digits):
            j = i
            while j < n and source[j] in digits:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in digits:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in digits:
                    j = k
                    while j < n and source[j] in digits:
                        j += 1
            toks.append(("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(("ident", source[i:j], i))
            i = j
            continue
        if source[i:i + 2] in ("<=", ">=", "==", "!="):
            toks.append(("op", source[i:i + 2], i))
            i += 2
            continue
        if c in "+-*/(),;=<>":
            toks.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", source, i)
    toks.append(("eof", "", n))
    return toks


def print_program(program) -> str:
    """Source text that parses back to the tree of a cdeoh.dsl Program: every
    operator expression is parenthesized, and every literal prints as its
    `repr`, except +inf, which prints as `1e400` and overflows back to inf."""
    def expr(e):
        if isinstance(e, Const):
            return "1e400" if e.value == math.inf else repr(e.value)
        if isinstance(e, Name):
            return e.ident
        if isinstance(e, Unary):
            return f"(-{expr(e.operand)})"
        if isinstance(e, Binary):
            return f"({expr(e.left)} {e.op} {expr(e.right)})"
        if isinstance(e, Call):
            return f"{e.func}({', '.join(expr(a) for a in e.args)})"
        if isinstance(e, Where):
            return f"where({expr(e.cond)}, {expr(e.then)}, {expr(e.other)})"
        if isinstance(e, Reduce):
            return f"{e.func}({expr(e.arg)})"
        raise TypeError(f"not an Expr: {e!r}")

    lets = "".join(f"let {name} = {expr(e)}; " for name, e in program.bindings)
    return f"{lets}return {expr(program.result)}"


def names_read(program) -> set[str]:
    """The declared inputs that a Program's tree names anywhere, by a plain walk."""
    found = set()

    def walk(e):
        if isinstance(e, Name):
            found.add(e.ident)
        elif isinstance(e, Unary):
            walk(e.operand)
        elif isinstance(e, Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Call):
            for a in e.args:
                walk(a)
        elif isinstance(e, Where):
            walk(e.cond)
            walk(e.then)
            walk(e.other)
        elif isinstance(e, Reduce):
            walk(e.arg)

    for _, expr in program.bindings:
        walk(expr)
    walk(program.result)
    return found & {name for name, _ in program.arity}


def reference_evaluate(program, inputs):
    """Tree-walking interpreter of a cdeoh.dsl Program: the differential oracle
    of the code that dsl.evaluate generates.

    Walks the tree node by node, checks the kinds and vector lengths of every
    operand where it is used, and raises EvalError with the same kinds as
    dsl.evaluate.  `inputs` maps every declared input to a float (scalar) or
    a sequence of floats (vector); no limits are applied.
    """
    def is_vec(x):
        return isinstance(x, np.ndarray) and x.ndim == 1

    def as_result(x):
        return np.float64(x) if isinstance(x, np.ndarray) and x.ndim == 0 else x

    def check_lengths(op, *vals):
        lengths = {v.shape[0] for v in vals if is_vec(v)}
        if len(lengths) > 1:
            raise EvalError("length-mismatch", f"{op}: vector lengths differ ({sorted(lengths)})")

    arith = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
    cmp = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
           "==": np.equal, "!=": np.not_equal}
    elementwise = {"abs": np.abs, "sqrt": np.sqrt, "log": np.log, "exp": np.exp,
                   "floor": np.floor, "ceil": np.ceil,
                   "min": np.minimum, "max": np.maximum, "pow": np.power}
    reductions = {
        "sum": lambda v: np.float64(np.sum(v)),
        "mean": lambda v: np.float64(np.mean(v)) if v.shape[0] else np.float64(np.nan),
        "minval": lambda v: np.float64(np.min(v)),
        "maxval": lambda v: np.float64(np.max(v)),
        "len": lambda v: np.float64(v.shape[0]),
    }

    env = {}
    for name, kind in program.arity:
        if name not in inputs:
            raise EvalError("missing-input", f"missing input {name!r}")
        if kind == "scalar":
            env[name] = np.float64(inputs[name])
        else:
            env[name] = np.asarray(inputs[name], dtype=np.float64)

    def ev(e):
        if isinstance(e, Const):
            return np.float64(e.value)
        if isinstance(e, Name):
            return env[e.ident]
        if isinstance(e, Unary):
            return as_result(np.negative(ev(e.operand)))
        if isinstance(e, Binary):
            left, right = ev(e.left), ev(e.right)
            check_lengths(f"operator {e.op!r}", left, right)
            if e.op in arith:
                return as_result(arith[e.op](left, right))
            mask = cmp[e.op](left, right)
            if isinstance(mask, np.ndarray) and mask.ndim > 0:
                return mask.astype(np.float64)
            return np.float64(bool(mask))
        if isinstance(e, Call):
            args = [ev(a) for a in e.args]
            check_lengths(f"{e.func}()", *args)
            return as_result(elementwise[e.func](*args))
        if isinstance(e, Where):
            cond, then, other = ev(e.cond), ev(e.then), ev(e.other)
            check_lengths("where()", cond, then, other)
            return as_result(np.where(np.not_equal(cond, 0.0), then, other))
        if isinstance(e, Reduce):
            arg = ev(e.arg)
            if not is_vec(arg):
                raise EvalError("kind-mismatch", f"{e.func}() expects a vector argument")
            if arg.shape[0] == 0 and e.func in ("minval", "maxval"):
                raise EvalError("length-mismatch", f"{e.func}() of an empty vector")
            return reductions[e.func](arg)
        raise TypeError(f"not an Expr: {e!r}")

    with np.errstate(all="ignore"):
        for name, expr in program.bindings:
            env[name] = ev(expr)
        out = ev(program.result)
    if is_vec(out):
        return Value("vector", out)
    return Value("scalar", float(out))
